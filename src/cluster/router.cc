#include "cluster/router.hh"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <thread>
#include <utility>

#include <sys/socket.h>

#include "cluster/proc.hh"
#include "cluster/wire.hh"
#include "common/logging.hh"
#include "common/ordered_pump.hh"
#include "obs/profile.hh"

namespace gopim::cluster {

namespace {

bool
isErrorLine(const std::string &line)
{
    return line.rfind("{\"type\":\"error\"", 0) == 0;
}

void
sleepMs(uint32_t ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

} // namespace

Router::Router(RouterConfig config)
    : config_(std::move(config)),
      metrics_(config_.metrics
                   ? config_.metrics
                   : std::make_shared<obs::MetricsRegistry>()),
      admission_(config_.admission, *metrics_,
                 config_.shards.size()),
      chaosRng_(config_.chaosSeed)
{
    shards_.reserve(config_.shards.size());
    for (size_t i = 0; i < config_.shards.size(); ++i) {
        names_.push_back(config_.shards[i].name);
        auto shard = std::make_unique<Shard>();
        shard->index = i;
        shard->spec = config_.shards[i];
        shards_.push_back(std::move(shard));
    }
    defaultsFp_ =
        serve::defaultsFingerprint(config_.defaults, config_.hw);
}

Router::~Router()
{
    for (auto &shardPtr : shards_) {
        Shard &shard = *shardPtr;
        disconnectShard(shard);
        if (shard.pid > 0) {
            killProcess(shard.pid, SIGTERM);
            // Give the worker its accept-loop tick to notice the
            // signal before escalating.
            bool reaped = false;
            for (int i = 0; i < 150 && !reaped; ++i) {
                reaped = reapProcess(shard.pid, false);
                if (!reaped)
                    sleepMs(20);
            }
            if (!reaped)
                stopWorker(shard);
            shard.pid = -1;
        }
    }
}

std::string
Router::start()
{
    if (started_)
        return "router already started";
    if (shards_.empty())
        return "no shards configured";
    std::vector<std::string> sorted = names_;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) !=
        sorted.end())
        return "duplicate shard name '" +
               *std::adjacent_find(sorted.begin(), sorted.end()) +
               "'";
    for (auto &shard : shards_) {
        if (std::string problem = connectShard(*shard);
            !problem.empty())
            return "shard '" + shard->spec.name + "': " + problem;
    }
    started_ = true;
    return "";
}

std::string
Router::connectShard(Shard &shard, size_t *reissued)
{
    std::string host = shard.spec.host;
    uint16_t port = shard.spec.port;

    if (!shard.spec.command.empty()) {
        // Spawn the worker ourselves: hand it an ephemeral port and
        // read the bound port back through its --port-file.
        std::remove(shard.spec.portFile.c_str());
        std::vector<std::string> argv = shard.spec.command;
        argv.push_back("--tcp=0");
        argv.push_back("--port-file=" + shard.spec.portFile);
        std::string spawnError;
        shard.pid = spawnProcess(argv, &spawnError);
        if (shard.pid < 0)
            return spawnError;

        int reported = 0;
        for (uint32_t i = 0; i < 500 && reported == 0; ++i) {
            std::ifstream portIn(shard.spec.portFile);
            if (!(portIn >> reported) || reported <= 0 ||
                reported > 65535) {
                reported = 0;
                sleepMs(20);
            }
        }
        if (reported == 0) {
            stopWorker(shard);
            return "worker did not report a port via " +
                   shard.spec.portFile;
        }
        host = "127.0.0.1";
        port = static_cast<uint16_t>(reported);
    }

    // Any failure from here on must not leak a just-spawned worker:
    // the caller's retry would spawn another one on top of it.
    auto fail = [&](std::string reason) {
        stopWorker(shard);
        return reason;
    };

    std::string connectError;
    int fd = -1;
    for (uint32_t attempt = 0;
         attempt < std::max<uint32_t>(1, config_.connectAttempts);
         ++attempt) {
        fd = net::connectTcp(host, port, &connectError);
        if (fd >= 0)
            break;
        sleepMs(config_.connectDelayMs);
    }
    if (fd < 0)
        return fail("connect to " + host + ":" +
                    std::to_string(port) +
                    " failed: " + connectError);
    net::Fd guard(fd);

    if (!net::writeFrame(fd, helloLine("router",
                                       serve::Envelope::Stable,
                                       defaultsFp_)))
        return fail("hello write failed");
    std::string reply;
    std::string readError;
    if (net::readFrame(fd, &reply, &readError) != net::IoStatus::Ok)
        return fail("hello reply missing: " +
                    (readError.empty()
                         ? std::string("connection closed")
                         : readError));
    if (std::string problem = checkHelloReply(reply, defaultsFp_);
        !problem.empty())
        return fail(problem);

    // Publish the connection and re-issue the journal in one hold of
    // the write lock: a line journaled before the snapshot is in the
    // replay (its dispatcher sees the new generation and skips its
    // own write), and one journaled after it is written after the
    // replay, so the shard receives the journal in order.
    std::lock_guard<std::mutex> writeLock(shard.writeMutex);
    std::vector<std::string> replay;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        replay.reserve(shard.journal.size());
        for (const Journaled &journaled : shard.journal)
            replay.push_back(journaled.line);
        shard.fd = std::move(guard);
        ++shard.generation;
        shard.dead = false;
    }
    shard.reader =
        std::thread([this, &shard, fd] { readerLoop(shard, fd); });
    for (const std::string &line : replay) {
        // Died again mid-replay: the reader marks the shard dead and
        // the journal is intact for the next round.
        if (!net::writeFrame(fd, line))
            return "re-issue write failed";
    }
    if (reissued != nullptr)
        *reissued = replay.size();
    return "";
}

void
Router::readerLoop(Shard &shard, int fd)
{
    while (true) {
        std::string payload;
        const net::IoStatus status = net::readFrame(fd, &payload);
        std::lock_guard<std::mutex> lock(mutex_);
        if (status != net::IoStatus::Ok || shard.journal.empty()) {
            // Connection lost — or a frame with nothing journaled
            // against it, which only a corrupted peer can produce.
            // Either way this connection is done; the session's
            // emitter revives the shard and re-issues its journal.
            shard.dead = true;
            cv_.notify_all();
            return;
        }
        Journaled front = std::move(shard.journal.front());
        shard.journal.pop_front();
        front.entry->isError = isErrorLine(payload);
        front.entry->response = std::move(payload);
        front.entry->done = true;
        admission_.onComplete(shard.index);
        cv_.notify_all();
    }
}

void
Router::disconnectShard(Shard &shard)
{
    // Wake a reader blocked in readFrame without closing the fd out
    // from under it; the fd is reset only after the join, and under
    // the write lock, so no dispatcher writes to a recycled number.
    if (shard.fd.valid())
        ::shutdown(shard.fd.get(), SHUT_RDWR);
    if (shard.reader.joinable())
        shard.reader.join();
    std::lock_guard<std::mutex> writeLock(shard.writeMutex);
    shard.fd.reset();
    std::lock_guard<std::mutex> lock(mutex_);
    shard.dead = true;
}

void
Router::stopWorker(Shard &shard)
{
    if (shard.pid > 0) {
        killProcess(shard.pid, SIGKILL);
        reapProcess(shard.pid, true);
        shard.pid = -1;
    }
}

void
Router::reviveShard(Shard &shard)
{
    for (uint32_t attempt = 0; attempt < config_.restartAttempts;
         ++attempt) {
        // Crashed or chaos-killed: reap the corpse before respawning.
        disconnectShard(shard);
        stopWorker(shard);
        size_t reissued = 0;
        if (std::string problem = connectShard(shard, &reissued);
            !problem.empty()) {
            warn("cluster: shard '", shard.spec.name,
                 "' restart attempt ", attempt + 1, "/",
                 config_.restartAttempts, " failed: ", problem);
            continue;
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++shard.restarts;
        }
        ++restarts_;
        reissued_ += reissued;
        metrics_->counter("cluster.restart.count").add();
        metrics_->counter("cluster.reissue.count").add(reissued);
        inform("cluster: shard '", shard.spec.name,
               "' restarted; re-issued ", reissued,
               " in-flight request(s)");
        return;
    }

    warn("cluster: shard '", shard.spec.name, "' gave up after ",
         config_.restartAttempts,
         " restart attempts; failing its in-flight requests");
    disconnectShard(shard);
    stopWorker(shard);
    std::lock_guard<std::mutex> lock(mutex_);
    shard.gone = true;
    for (Journaled &journaled : shard.journal) {
        journaled.entry->response = serve::errorResponseLine(
            journaled.entry->id,
            {"shard_unavailable", "",
             "shard '" + shard.spec.name +
                 "' is unavailable (worker failed permanently)"});
        journaled.entry->isError = true;
        journaled.entry->done = true;
    }
    shard.journal.clear();
    admission_.resetInflight(shard.index, 0);
    cv_.notify_all();
}

Router::Shard *
Router::shardToRevive() const
{
    for (const auto &shardPtr : shards_)
        if (shardPtr->dead && !shardPtr->gone &&
            !shardPtr->journal.empty())
            return shardPtr.get();
    return nullptr;
}

Router::EntryPtr
Router::immediateEntry(std::string response, bool isError)
{
    auto entry = std::make_shared<Entry>();
    entry->done = true;
    entry->isError = isError;
    entry->response = std::move(response);
    return entry;
}

size_t
Router::shardFor(const std::string &key) const
{
    return rendezvousShard(key, names_);
}

Router::EntryPtr
Router::dispatchLine(const std::string &line, serve::LineRead read,
                     StreamStats *stats)
{
    ++requests_;
    ++stats->requests;
    metrics_->counter("cluster.request.count").add();
    if (read == serve::LineRead::TooLong)
        return immediateEntry(
            serve::errorResponseLine("", serve::lineTooLongError()),
            true);

    // The parse/validate path below mirrors serve::Service::dispatch
    // byte for byte: a request rejected at the router produces the
    // same error line a worker would have produced.
    json::Value body;
    std::string parseError;
    if (!json::Value::parse(line, &body, &parseError))
        return immediateEntry(
            serve::errorResponseLine(
                "", {"bad_json", "", "invalid JSON: " + parseError}),
            true);

    std::string id;
    if (body.isObject()) {
        if (const json::Value *idField = body.find("id");
            idField && idField->isString())
            id = idField->asString();
        // Stats queries are answered by the router itself — they ask
        // about the serving process, and here that is the cluster.
        if (const json::Value *type = body.find("type");
            type && type->isString() && type->asString() == "stats")
            return immediateEntry(statsJson().dump(), false);
    }

    serve::Request request;
    if (serve::RequestError err =
            parseRequest(body, config_.defaults, &request);
        !err.ok())
        return immediateEntry(serve::errorResponseLine(id, err),
                              true);

    serve::ResolvedRequest resolved;
    if (serve::RequestError err = resolveRequest(request, &resolved);
        !err.ok())
        return immediateEntry(
            serve::errorResponseLine(request.id, err), true);

    const std::string key = cacheKey(resolved, config_.hw);
    const size_t index = shardFor(key);
    Shard &shard = *shards_[index];

    // Admission: shed fast, block on saturation. A dead shard is not
    // waited for: the line joins its journal, which the emitter
    // re-issues when it revives the shard.
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        if (shard.gone) {
            lock.unlock();
            return immediateEntry(
                serve::errorResponseLine(
                    request.id,
                    {"shard_unavailable", "",
                     "shard '" + shard.spec.name +
                         "' is unavailable (worker failed "
                         "permanently)"}),
                true);
        }
        const Admit admit = admission_.decide(index);
        if (admit == Admit::Accept)
            break;
        if (admit == Admit::Shed) {
            const int64_t depth = admission_.inflight(index);
            lock.unlock();
            admission_.onShed(index);
            ++stats->shed;
            return immediateEntry(
                serve::errorResponseLine(
                    request.id,
                    {"overloaded", "",
                     "shard '" + shard.spec.name +
                         "' is overloaded (" +
                         std::to_string(depth) +
                         " in flight); request shed"}),
                true);
        }
        cv_.wait_for(lock, std::chrono::milliseconds(20));
    }

    auto entry = std::make_shared<Entry>();
    entry->id = request.id;
    entry->routed = true;
    entry->dispatchedUs = obs::profileNowUs();
    shard.journal.push_back({line, entry});
    admission_.onDispatch(index);
    const bool live = !shard.dead;
    const uint64_t generation = shard.generation;
    lock.unlock();

    if (live)
        sendToShard(shard, generation, line);
    return entry;
}

void
Router::sendToShard(Shard &shard, uint64_t generation,
                    const std::string &line)
{
    std::lock_guard<std::mutex> writeLock(shard.writeMutex);
    if (shard.generation != generation)
        return; // re-issued by the revival in between
    if (net::writeFrame(shard.fd.get(), line))
        return;
    // Death detected on write: the line is journaled, so the revival
    // re-issues it and the entry still completes.
    std::lock_guard<std::mutex> lock(mutex_);
    shard.dead = true;
    cv_.notify_all();
}

void
Router::awaitEntry(const Entry &entry)
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        Shard *dead = nullptr;
        cv_.wait(lock, [&] {
            dead = shardToRevive();
            return entry.done || dead != nullptr;
        });
        if (entry.done)
            return;
        lock.unlock();
        reviveShard(*dead);
        lock.lock();
    }
}

void
Router::afterEmit(const Entry &entry, StreamStats *stats)
{
    ++emitted_;
    if (entry.isError) {
        ++errors_;
        ++stats->errors;
    }
    if (entry.routed)
        admission_.observeLatency(obs::profileNowUs() -
                                  entry.dispatchedUs);
    // Chaos harness: every chaosKillEvery emitted responses, SIGKILL
    // one seeded-random spawned worker — the recovery path must keep
    // the stream byte-identical regardless. It runs on the emitter,
    // the thread that owns revival and with it every shard's pid.
    if (config_.chaosKillEvery == 0 ||
        chaosKills_ >= config_.chaosKillCount ||
        emitted_ % config_.chaosKillEvery != 0)
        return;
    std::vector<Shard *> candidates;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &shardPtr : shards_)
            if (shardPtr->pid > 0 && !shardPtr->gone)
                candidates.push_back(shardPtr.get());
    }
    if (candidates.empty())
        return;
    Shard &victim = *candidates[chaosRng_.uniformInt(
        static_cast<uint64_t>(candidates.size()))];
    inform("cluster: chaos kill of shard '", victim.spec.name,
           "' after ", emitted_, " responses");
    killProcess(victim.pid, SIGKILL);
    ++chaosKills_;
    ++stats->chaosKills;
    metrics_->counter("cluster.chaos.kill.count").add();
}

Router::StreamStats
Router::runSession(
    const std::function<serve::LineRead(std::string *)> &nextLine,
    const std::function<void(const std::string &)> &emit,
    const std::function<void()> &flush)
{
    StreamStats stats;
    pumpInOrder<EntryPtr>(
        [&](EntryPtr *entry) {
            std::string line;
            for (serve::LineRead read;
                 (read = nextLine(&line)) != serve::LineRead::End;) {
                if (read == serve::LineRead::Line &&
                    line.find_first_not_of(" \t\r") ==
                        std::string::npos)
                    continue;
                *entry = dispatchLine(line, read, &stats);
                return true;
            }
            return false;
        },
        [&](const EntryPtr &entry) {
            std::lock_guard<std::mutex> lock(mutex_);
            return entry->done;
        },
        [&](EntryPtr &entry) {
            awaitEntry(*entry);
            emit(entry->response);
            afterEmit(*entry, &stats);
        },
        flush);

    stats.restarts = restarts_;
    stats.reissued = reissued_;
    return stats;
}

Router::StreamStats
Router::processStream(std::istream &in, std::ostream &out)
{
    const ScopedUntie untie(in);
    return runSession(
        [&in](std::string *line) {
            return serve::readRequestLine(in, line);
        },
        [&out](const std::string &response) {
            out << response << '\n';
        },
        [&out] { out.flush(); });
}

Router::StreamStats
Router::processFramed(int clientFd)
{
    StreamStats stats;
    std::string payload;
    if (net::readFrame(clientFd, &payload) != net::IoStatus::Ok)
        return stats;
    Hello hello;
    if (std::string problem = parseHello(payload, &hello);
        !problem.empty()) {
        net::writeFrame(clientFd,
                        serve::errorResponseLine(
                            "", {"protocol_mismatch", "", problem}));
        return stats;
    }
    if (hello.envelope != serve::Envelope::Stable) {
        net::writeFrame(
            clientFd,
            serve::errorResponseLine(
                "", {"protocol_mismatch", "",
                     "the router serves only the stable envelope "
                     "(cache counters are per-shard)"}));
        return stats;
    }
    if (!hello.defaultsFp.empty() &&
        hello.defaultsFp != defaultsFp_) {
        net::writeFrame(
            clientFd,
            serve::errorResponseLine(
                "", {"defaults_mismatch", "",
                     "serving defaults mismatch: router '" +
                         defaultsFp_ + "' vs peer '" +
                         hello.defaultsFp +
                         "' (start both with identical --engine/"
                         "--seed/fault flags)"}));
        return stats;
    }
    if (!net::writeFrame(clientFd, helloOkLine(defaultsFp_)))
        return stats;

    bool peerGone = false;
    return runSession(
        [clientFd](std::string *line) {
            return net::readFrame(clientFd, line) == net::IoStatus::Ok
                       ? serve::LineRead::Line
                       : serve::LineRead::End;
        },
        [clientFd, &peerGone](const std::string &response) {
            if (!peerGone && !net::writeFrame(clientFd, response))
                peerGone = true;
        },
        [] {});
}

json::Value
Router::statsJson() const
{
    json::Value inflight = json::Value::array();
    uint64_t journaled = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &shardPtr : shards_) {
            json::Value entry = json::Value::object();
            entry.set("name", shardPtr->spec.name);
            entry.set("inflight",
                      static_cast<int64_t>(
                          shardPtr->journal.size()));
            entry.set("restarts",
                      static_cast<int64_t>(shardPtr->restarts));
            entry.set("gone", shardPtr->gone);
            journaled += shardPtr->journal.size();
            inflight.push(std::move(entry));
        }
    }
    json::Value v = json::Value::object();
    v.set("type", "stats");
    v.set("requests", requests_.load());
    v.set("errors", errors_.load());
    v.set("shed", admission_.shedCount());
    v.set("restarts", restarts_.load());
    v.set("reissued", reissued_.load());
    v.set("chaos_kills", chaosKills_.load());
    v.set("inflight", journaled);
    v.set("shards", std::move(inflight));
    return v;
}

} // namespace gopim::cluster
