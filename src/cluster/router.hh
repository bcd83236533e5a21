/**
 * @file
 * ShardRouter: scales the serving layer across worker processes
 * while preserving the single-process byte contract.
 *
 * Determinism argument, in three parts:
 *  1. Placement — every request is parsed/resolved exactly as a
 *     worker would and rendezvous-hashed by its content-addressed
 *     cache key (shards.hh), so repeats of a key always reach the
 *     same shard and each shard's LRU cache behaves exactly like a
 *     single-process cache over its key subset.
 *  2. Envelope — workers speak the Stable envelope (service.hh), so
 *     response bytes are a pure function of (id, key, result) and
 *     never of a shard's private hit/miss history.
 *  3. Ordering — responses come back in request order per shard
 *     connection, and the router re-emits them in client input
 *     order, so the concatenated stream matches a single-process
 *     run line for line.
 *
 * Worker death is survived, not hidden: the router journals every
 * in-flight request per shard, detects death (read/write failure),
 * respawns or reconnects from the session's emitter thread (so
 * recovery never waits for client input), re-issues the journal in
 * order, and keeps going — the client stream is byte-identical to an undisturbed run
 * because re-simulation of a deterministic request reproduces the
 * same result bytes. A seeded chaos mode (kill a worker every N
 * responses) makes that claim testable end to end.
 */

#ifndef GOPIM_CLUSTER_ROUTER_HH
#define GOPIM_CLUSTER_ROUTER_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/admission.hh"
#include "cluster/shards.hh"
#include "common/net.hh"
#include "common/rng.hh"
#include "obs/metrics.hh"
#include "reram/config.hh"
#include "serve/request.hh"

namespace gopim::cluster {

/** Everything a Router needs at construction. */
struct RouterConfig
{
    std::vector<ShardSpec> shards;
    /**
     * Per-request defaults — MUST match the workers' (the hello
     * fingerprint check enforces it; see wire.hh).
     */
    serve::Request defaults;
    reram::AcceleratorConfig hw =
        reram::AcceleratorConfig::paperDefault();
    AdmissionConfig admission;

    /** Connect retries per (re)connect round and their spacing. */
    uint32_t connectAttempts = 50;
    uint32_t connectDelayMs = 100;
    /** Full respawn+reconnect rounds before a shard is given up. */
    uint32_t restartAttempts = 3;

    /**
     * Chaos harness (spawned shards only): after every
     * `chaosKillEvery` responses emitted, SIGKILL a seeded-random
     * worker, up to `chaosKillCount` times. 0 disables.
     */
    uint32_t chaosKillEvery = 0;
    uint32_t chaosKillCount = 0;
    uint64_t chaosSeed = 1;

    /**
     * Optional export registry. Admission control always records
     * into a registry — this one when given, a private one
     * otherwise — because its decisions read the instruments back.
     */
    std::shared_ptr<obs::MetricsRegistry> metrics;
};

/** The shard router. */
class Router
{
  public:
    explicit Router(RouterConfig config);

    /** Disconnects, SIGTERMs and reaps every spawned worker. */
    ~Router();

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    /**
     * Spawn/connect every shard and exchange hellos. Returns "" on
     * success, else a one-line reason (strict: all shards must come
     * up before traffic flows).
     */
    std::string start();

    struct StreamStats
    {
        uint64_t requests = 0;
        uint64_t errors = 0;
        uint64_t shed = 0;
        uint64_t restarts = 0;
        uint64_t reissued = 0;
        uint64_t chaosKills = 0;
    };

    /**
     * Route JSONL requests from `in` until EOF; one response line
     * per request to `out`, in input order. Each response is written
     * the moment it and every earlier one are done, and `out` is
     * flushed whenever nothing more is ready, so a client that waits
     * for each response is served. `in` is untied from its output
     * stream for the call. Lines are capped like
     * Service::processStream's (serve::readRequestLine).
     */
    StreamStats processStream(std::istream &in, std::ostream &out);

    /**
     * Client-facing framed transport: hello exchange on `clientFd`,
     * then one request per frame in, one response per frame out (in
     * order). Returns when the client closes.
     */
    StreamStats processFramed(int clientFd);

    /** Rendezvous placement of a content-addressed key. */
    size_t shardFor(const std::string &key) const;

    /** The registry admission control records into. */
    obs::MetricsRegistry &metrics() { return *metrics_; }

    /** Router stats snapshot ({"type":"stats"} answers). */
    json::Value statsJson() const;

  private:
    /** One client request, in input order. */
    struct Entry
    {
        bool done = false;
        bool isError = false;
        bool routed = false;     ///< reached a shard (latency counts)
        std::string response;    ///< final line, no newline
        std::string id;
        double dispatchedUs = 0.0;
    };
    using EntryPtr = std::shared_ptr<Entry>;

    /** An in-flight request journaled against a shard. */
    struct Journaled
    {
        std::string line; ///< raw client line, re-issued verbatim
        EntryPtr entry;
    };

    struct Shard
    {
        size_t index = 0; ///< position in shards_ / admission gauges
        ShardSpec spec;
        /**
         * Serializes frame writes with the connection swap: fd is
         * replaced, and the journal re-issued, only under it.
         */
        std::mutex writeMutex;
        net::Fd fd;
        /** Bumped per connection; a stale dispatcher skips its write. */
        uint64_t generation = 0;
        int64_t pid = -1;
        bool dead = true;  ///< no live connection
        bool gone = false; ///< permanently failed
        std::deque<Journaled> journal;
        uint64_t restarts = 0;
        // Last member on purpose: the reader thread touches journal
        // and dead, which must outlive it under reverse-order
        // destruction (the concurrency-join-order lint rule).
        std::thread reader;
    };

    /**
     * One connect/spawn+hello round; "" on success. The new
     * connection is published, and the journal re-issued on it in
     * order, under the shard's write lock; `reissued` gets the count.
     */
    std::string connectShard(Shard &shard, size_t *reissued = nullptr);
    /** Reader thread: match response frames to journal fronts. */
    void readerLoop(Shard &shard, int fd);
    /** Join the reader and drop the connection (does not revive). */
    void disconnectShard(Shard &shard);
    /** SIGKILL and reap the shard's spawned worker, if any. */
    void stopWorker(Shard &shard);
    /**
     * Respawn/reconnect a dead shard and re-issue its journal; after
     * restartAttempts failed rounds, mark it gone and fail its
     * journal with shard_unavailable errors. Emitter thread only.
     */
    void reviveShard(Shard &shard);
    /** A dead, not gone shard that owes responses; mutex_ held. */
    Shard *shardToRevive() const;

    /**
     * Parse/route/admit one line (a TooLong read is answered with
     * line_too_long); never blocks on results or on revival. A line
     * for a dead shard is journaled unsent: its revival sends it.
     */
    EntryPtr dispatchLine(const std::string &line, serve::LineRead read,
                          StreamStats *stats);
    EntryPtr immediateEntry(std::string response, bool isError);
    /**
     * Write a journaled line on the connection it was journaled
     * against; a revival since then has re-issued it already.
     */
    void sendToShard(Shard &shard, uint64_t generation,
                     const std::string &line);

    /**
     * Emitter: wait until `entry` is done, reviving any dead shard
     * that owes responses meanwhile (so revival never waits for
     * client input).
     */
    void awaitEntry(const Entry &entry);
    /** Emitter: count an emitted entry, then run the chaos harness. */
    void afterEmit(const Entry &entry, StreamStats *stats);

    /**
     * The session shared by both client transports: this thread
     * reads, dispatches and admits; an emitter thread writes each
     * response the moment it and every earlier one are done, calls
     * `flush` before it blocks, and owns shard revival.
     */
    StreamStats runSession(
        const std::function<serve::LineRead(std::string *)> &nextLine,
        const std::function<void(const std::string &)> &emit,
        const std::function<void()> &flush);

    RouterConfig config_;
    std::shared_ptr<obs::MetricsRegistry> metrics_;
    AdmissionController admission_;
    std::vector<std::string> names_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::string defaultsFp_;
    Rng chaosRng_;         ///< emitter thread only
    uint64_t emitted_ = 0; ///< emitter thread only
    // Written by the session's reader or emitter, read by statsJson()
    // on the reader.
    std::atomic<uint64_t> chaosKills_{0};
    std::atomic<uint64_t> restarts_{0};
    std::atomic<uint64_t> reissued_{0};
    std::atomic<uint64_t> requests_{0};
    std::atomic<uint64_t> errors_{0};
    bool started_ = false;

    /**
     * One mutex/cv pair guards all cross-thread state (journals,
     * entry done flags, dead/gone flags, connection generations).
     * Reader threads hold it only to match one frame; contention is
     * negligible next to simulation cost, and a single lock keeps the
     * invariants auditable. A shard's writeMutex, when both are
     * taken, is taken first.
     */
    mutable std::mutex mutex_;
    std::condition_variable cv_;
};

} // namespace gopim::cluster

#endif // GOPIM_CLUSTER_ROUTER_HH
