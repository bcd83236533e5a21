/**
 * @file
 * Shared pieces of the perfbench binary: run options, the result
 * record every workload fills, timing and statistics helpers, the
 * serving defaults, and the child-process plumbing the router
 * workload uses.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

#include "serve/request.hh"

namespace perfbench {

namespace serve = gopim::serve;

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Self-test mode: a short stream and one setup repetition. */
    bool quick = false;
    /** Self-test hook: flip one byte of a checked response. */
    bool flipByte = false;
    /** Committed result digests of the canary requests. */
    std::string goldenPath = "perfbench/golden.txt";
    /** Where the traced run writes its Chrome trace. */
    std::string traceOut;
    /** This executable (re-executed as the router process). */
    std::string selfPath;
    std::string serveBin;
    /** Directory for the router's shard port files. */
    std::string portDir;
};

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload run reports. */
struct Outcome
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** End-to-end metrics (untraced run). */
    std::vector<Metric> metrics;
    /** Per-layer values by metric name (traced run). */
    std::map<std::string, double> layers;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** Record a failed output check (the run is then incorrect). */
    void fail(const std::string &why);
};

/** Monotonic time in seconds since an arbitrary epoch. */
inline double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Linear-interpolated quantile of an unsorted sample (q in [0,1]). */
double quantile(std::vector<double> values, double q);

double median(std::vector<double> values);

/**
 * Mean of the middle half of a sample (the lowest and highest quarter
 * dropped): as robust as the median to a few outliers, but it moves
 * smoothly when the values sit on a lattice.
 */
double interquartileMean(std::vector<double> values);

/** Peak resident set of this process, or of its reaped children. */
double peakRssMiB(bool children);

/**
 * Serving defaults exactly as gopim_serve and gopim_router derive
 * them from an empty command line, so in-process services and
 * spawned shards agree on every cache key and result byte.
 */
serve::Request servingDefaults();

/** Stable-envelope result bytes of a response ("" if none). */
std::string resultBytes(const std::string &response);

/** The "code" of an error response ("" if not an error). */
std::string errorCode(const std::string &response);

/** Canary id -> committed digest, read from the golden file. */
std::vector<std::pair<std::string, std::string>>
readGolden(const std::string &path);

/** A spawned child with its stdin and stdout piped to us. */
struct Child
{
    pid_t pid = -1;
    int in = -1;  ///< write end of the child's stdin
    int out = -1; ///< read end of the child's stdout
};

/** Spawn argv[0] with piped stdin/stdout; stderr is inherited. */
Child spawnChild(const std::vector<std::string> &argv);

/** Close the child's stdin (if still open). */
void closeInput(Child &child);

/** Reap the child; returns its exit status (-1 on abnormal exit). */
int reapChild(Child &child);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
