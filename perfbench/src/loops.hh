/**
 * @file
 * Load generators shared by the serving workloads. A Target is the
 * system under test seen from the benchmark's one thread: an
 * in-process serve::Service or a spawned router process. Responses
 * come back in request order from both.
 */

#ifndef PERFBENCH_LOOPS_HH
#define PERFBENCH_LOOPS_HH

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "serve/service.hh"
#include "streams.hh"

namespace perfbench {

namespace serve = gopim::serve;

class Target
{
  public:
    virtual ~Target() = default;
    /** Issue one request line; may block on the target's backpressure. */
    virtual void send(const std::string &line) = 0;
    /** Next in-order response if it is available now. */
    virtual bool poll(std::string *response) = 0;
    /** Block until the next in-order response arrives. */
    virtual std::string wait() = 0;
    /** No more requests follow. */
    virtual void endOfInput() {}
};

/** An in-process Service driven through submit/ready/finish. */
class ServiceTarget : public Target
{
  public:
    ServiceTarget(size_t jobs,
                  std::shared_ptr<gopim::obs::MetricsRegistry> metrics =
                      nullptr);
    void send(const std::string &line) override;
    bool poll(std::string *response) override;
    std::string wait() override;

    serve::Service &service() { return *service_; }

  private:
    std::unique_ptr<serve::Service> service_;
    std::deque<serve::Service::Pending> window_;
};

/**
 * The router, run as a child process of this executable
 * (routerChildMain) with its stdin and stdout piped to the benchmark.
 */
class RouterTarget : public Target
{
  public:
    explicit RouterTarget(const Options &options);
    ~RouterTarget() override;
    RouterTarget(const RouterTarget &) = delete;
    RouterTarget &operator=(const RouterTarget &) = delete;

    void send(const std::string &line) override;
    bool poll(std::string *response) override;
    std::string wait() override;
    void endOfInput() override;

    /**
     * The router emits a finished response only when the next input
     * line arrives (or at end of input). Send a {"type":"stats"}
     * probe every millisecond until `count` responses have come
     * back, then swallow the probes' answers.
     */
    std::vector<std::string> collectWithProbes(size_t count);

    /** Close input, read the stats trailer, reap; exit status. */
    int shutdown(std::string *trailer);

  private:
    bool readAvailable(bool block);

    Child child_;
    std::string buffer_;
    bool eof_ = false;
};

/**
 * What the output check keeps of one response: digests and short
 * fields, so the benchmark's memory does not grow with throughput.
 */
struct Reply
{
    uint64_t line = 0;   ///< FNV-1a of the whole response line
    uint64_t result = 0; ///< FNV-1a of the result bytes (0: none)
    uint64_t key = 0;    ///< cache key (valid if `keyed`)
    std::string code;    ///< error code ("" if none)
    bool keyed = false;
    bool idEchoed = false;
};

/**
 * Digest the response to `line`. `flip` corrupts one digit of the
 * result first (the self-test's check that the check can fail).
 */
Reply summarize(std::string response, const Line &line, bool flip = false);

std::vector<Reply> summarizeAll(const std::vector<Line> &lines, size_t first,
                                const std::vector<std::string> &responses);

/** Responses and timings of one pass over a slice of lines. */
struct PassResult
{
    std::vector<Reply> replies;
    std::vector<double> latencyMs;
    /** Completion time of each op (nowS() clock). */
    std::vector<double> doneS;
    std::vector<double> lagMs;
    double startS = 0.0;

    /**
     * Allocate and touch room for `count` ops up front, so the pass's
     * own memory, and with it peak_rss_mb, does not depend on how many
     * ops a run completes.
     */
    void prepare(size_t count);
};

/**
 * Closed loop with submit-ahead: send every line, collecting ready
 * responses in between; latency runs from send to receipt. At most
 * `window` requests are in flight (0: only the target's own queue
 * bound applies the backpressure). Stops issuing new lines once
 * `seconds` have passed (<= 0: run them all).
 */
PassResult closedLoop(Target &target, const std::vector<Line> &lines,
                      size_t first, size_t count, double seconds = 0.0,
                      bool flipCanary = false, size_t window = 0);

/**
 * Open loop with Poisson arrivals at `rate` per second (the gaps are
 * drawn from `seed`); latency runs from each op's due time, lag is how
 * late the generator issued it. `flipCanary` corrupts the first
 * canary's response (see summarize).
 */
PassResult openLoop(Target &target, const std::vector<Line> &lines,
                    size_t first, size_t count, double rate, uint64_t seed,
                    bool flipCanary = false);

/**
 * Output check of a served slice: ids echo, malformed lines get
 * unknown_name, equal cache keys carry equal bytes, and canaries
 * match their committed digests. Each mismatch is a failed op.
 */
void checkResponses(const std::vector<Line> &lines, size_t first,
                    const std::vector<Reply> &replies, const Options &options,
                    Outcome *outcome);

/**
 * Re-run a seeded sample of the slice's distinct requests through a
 * fresh one-worker Service and compare whole response lines.
 */
void checkAgainstRerun(const std::vector<Line> &lines, size_t first,
                       const std::vector<Reply> &replies, uint64_t seed,
                       size_t samples, Outcome *outcome);

/** Share of `latencyMs` within `limitMs`, failed ops counting as misses. */
double sloMetFraction(const std::vector<double> &latencyMs, double limitMs,
                      uint64_t failed);

/** Fewest ops in one slice of the timed phase (>= 10 beyond its p99). */
constexpr size_t kSliceOps = 1000;

/**
 * The end-to-end metrics every workload prints. The timed ops are cut
 * into consecutive slices of at least kSliceOps ops each; ops_per_s
 * and the latency percentiles are the interquartile means of their
 * per-slice values, so a burst of interference from outside the
 * benchmark that spoils a quarter of the slices does not move them.
 * The first `lead` ops are a lead-in: checked by the caller, not
 * measured.
 */
void addLatencyMetrics(Outcome *outcome, double setupS, double startS,
                       const std::vector<double> &doneS,
                       const std::vector<double> &latencyMs,
                       double limitMs, double rssMiB, size_t lead = 0);

} // namespace perfbench

#endif // PERFBENCH_LOOPS_HH
