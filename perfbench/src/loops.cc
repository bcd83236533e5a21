#include "loops.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <fcntl.h>
#include <iostream>
#include <map>
#include <poll.h>
#include <thread>
#include <unistd.h>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace perfbench {

namespace {

void
sleepBriefly()
{
    std::this_thread::sleep_for(std::chrono::microseconds(50));
}

/** The "id" of a generated line (every line starts {"id":"...). */
std::string
lineId(const std::string &text)
{
    const size_t from = 7;
    return text.substr(from, text.find('"', from) - from);
}

/** The 16-hex-digit cache key of a response, or false if none. */
bool
responseKey(const std::string &response, uint64_t *key)
{
    static const std::string marker = ",\"key\":\"";
    const size_t at = response.find(marker);
    if (at == std::string::npos)
        return false;
    const size_t from = at + marker.size();
    const std::string hex =
        response.substr(from, response.find('"', from) - from);
    if (hex.size() != 16 ||
        hex.find_first_not_of("0123456789abcdef") != std::string::npos)
        return false;
    *key = std::stoull(hex, nullptr, 16);
    return true;
}

} // namespace

ServiceTarget::ServiceTarget(
    size_t jobs, std::shared_ptr<gopim::obs::MetricsRegistry> metrics)
{
    serve::ServiceConfig config;
    config.jobs = jobs;
    config.defaults = servingDefaults();
    config.metrics = std::move(metrics);
    service_ = std::make_unique<serve::Service>(std::move(config));
}

void
ServiceTarget::send(const std::string &line)
{
    window_.push_back(service_->submit(line, serve::Envelope::Stable));
}

bool
ServiceTarget::poll(std::string *response)
{
    if (window_.empty() || !service_->ready(window_.front()))
        return false;
    *response = service_->finish(window_.front());
    window_.pop_front();
    return true;
}

std::string
ServiceTarget::wait()
{
    if (window_.empty())
        gopim::fatal("perfbench: waiting on an empty window");
    std::string response = service_->finish(window_.front());
    window_.pop_front();
    return response;
}

RouterTarget::RouterTarget(const Options &options)
{
    child_ = spawnChild({options.selfPath, "--router-child",
                         "--serve-bin=" + options.serveBin,
                         "--port-dir=" + options.portDir});
    // Writes must never block outright: the router stops reading
    // while its own output pipe is full, so send() keeps draining it.
    ::fcntl(child_.in, F_SETFL, ::fcntl(child_.in, F_GETFL) | O_NONBLOCK);
}

RouterTarget::~RouterTarget()
{
    reapChild(child_);
}

void
RouterTarget::send(const std::string &line)
{
    const std::string framed = line + "\n";
    size_t done = 0;
    while (done < framed.size()) {
        const ssize_t n =
            ::write(child_.in, framed.data() + done, framed.size() - done);
        if (n > 0) {
            done += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && errno != EAGAIN && errno != EINTR)
            gopim::fatal("perfbench: router stdin closed");
        pollfd fds[2] = {{child_.in, POLLOUT, 0}, {child_.out, POLLIN, 0}};
        ::poll(fds, 2, -1);
        if (fds[1].revents)
            readAvailable(false);
    }
}

bool
RouterTarget::readAvailable(bool block)
{
    pollfd pfd{child_.out, POLLIN, 0};
    if (::poll(&pfd, 1, block ? -1 : 0) <= 0)
        return false;
    char chunk[65536];
    const ssize_t n = ::read(child_.out, chunk, sizeof chunk);
    if (n <= 0) {
        eof_ = true;
        return false;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
}

bool
RouterTarget::poll(std::string *response)
{
    size_t newline = buffer_.find('\n');
    if (newline == std::string::npos && readAvailable(false))
        newline = buffer_.find('\n');
    if (newline == std::string::npos)
        return false;
    *response = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return true;
}

std::string
RouterTarget::wait()
{
    std::string response;
    while (!poll(&response)) {
        if (eof_)
            gopim::fatal("perfbench: router exited mid-stream");
        readAvailable(true);
    }
    return response;
}

void
RouterTarget::endOfInput()
{
    closeInput(child_);
}

std::vector<std::string>
RouterTarget::collectWithProbes(size_t count)
{
    std::vector<std::string> out;
    size_t probes = 0;
    double lastProbe = 0.0;
    std::string response;
    while (out.size() < count) {
        if (poll(&response)) {
            out.push_back(std::move(response));
            continue;
        }
        if (nowS() - lastProbe > 1e-3) {
            send("{\"type\":\"stats\"}");
            ++probes;
            lastProbe = nowS();
        }
        sleepBriefly();
    }
    for (; probes > 0; --probes)
        wait();
    return out;
}

int
RouterTarget::shutdown(std::string *trailer)
{
    endOfInput();
    std::string line;
    while (true) {
        if (poll(&line)) {
            *trailer = line;
            continue;
        }
        if (eof_)
            break;
        readAvailable(true);
    }
    return reapChild(child_);
}

void
PassResult::prepare(size_t count)
{
    replies.resize(count);
    latencyMs.resize(count);
    doneS.resize(count);
    lagMs.resize(count);
    replies.clear();
    latencyMs.clear();
    doneS.clear();
    lagMs.clear();
}

PassResult
closedLoop(Target &target, const std::vector<Line> &lines, size_t first,
           size_t count, double seconds, bool flipCanary, size_t window)
{
    PassResult pass;
    pass.prepare(count);
    std::deque<double> sentAt;
    const double start = pass.startS = nowS();
    auto collect = [&](std::string response) {
        pass.doneS.push_back(nowS());
        pass.latencyMs.push_back((pass.doneS.back() - sentAt.front()) * 1e3);
        sentAt.pop_front();
        const Line &line = lines[first + pass.replies.size()];
        const bool flip = flipCanary && !line.canary.empty();
        flipCanary &= !flip;
        pass.replies.push_back(summarize(std::move(response), line, flip));
    };
    std::string response;
    for (size_t k = 0; k < count; ++k) {
        if (seconds > 0.0 && nowS() - start >= seconds)
            break;
        while (window && sentAt.size() >= window)
            collect(target.wait());
        sentAt.push_back(nowS());
        target.send(lines[first + k].text);
        while (target.poll(&response))
            collect(std::move(response));
    }
    target.endOfInput();
    while (!sentAt.empty())
        collect(target.wait());
    return pass;
}

PassResult
openLoop(Target &target, const std::vector<Line> &lines, size_t first,
         size_t count, double rate, uint64_t seed, bool flipCanary)
{
    PassResult pass;
    pass.prepare(count);
    // Poisson arrivals: exponential gaps drawn before timing starts.
    std::vector<double> offsets(count);
    gopim::Rng gaps(seed ^ 0xA4417A15ULL);
    double at = 0.0;
    for (double &offset : offsets) {
        offset = at;
        at -= std::log(1.0 - gaps.uniform()) / rate;
    }
    const double start = pass.startS = nowS() + 1e-3;
    auto due = [&](size_t k) { return start + offsets[k]; };
    size_t sent = 0;
    std::string response;
    while (pass.replies.size() < count) {
        bool progressed = false;
        double now = nowS();
        if (sent < count && now >= due(sent)) {
            pass.lagMs.push_back((now - due(sent)) * 1e3);
            target.send(lines[first + sent].text);
            if (++sent == count)
                target.endOfInput();
            progressed = true;
        }
        while (pass.replies.size() < count && target.poll(&response)) {
            now = nowS();
            const size_t k = pass.replies.size();
            pass.doneS.push_back(now);
            pass.latencyMs.push_back((now - due(k)) * 1e3);
            const bool flip = flipCanary && !lines[first + k].canary.empty();
            flipCanary &= !flip;
            pass.replies.push_back(
                summarize(std::move(response), lines[first + k], flip));
            progressed = true;
        }
        // Spin rather than sleep: a sleep overshoots by tens of
        // microseconds, which would land in every latency and lag.
        if (!progressed)
            std::this_thread::yield();
    }
    return pass;
}

Reply
summarize(std::string response, const Line &line, bool flip)
{
    if (flip) {
        const size_t at =
            response.find_first_of("0123456789", response.find("\"result\":"));
        if (at != std::string::npos)
            response[at] = response[at] == '9' ? '8' : '9';
    }
    Reply reply;
    reply.line = gopim::fnv1a64(response);
    if (const std::string bytes = resultBytes(response); !bytes.empty())
        reply.result = gopim::fnv1a64(bytes);
    reply.keyed = responseKey(response, &reply.key);
    reply.code = errorCode(response);
    reply.idEchoed = response.find("\"id\":\"" + lineId(line.text) + "\"") !=
                     std::string::npos;
    return reply;
}

std::vector<Reply>
summarizeAll(const std::vector<Line> &lines, size_t first,
             const std::vector<std::string> &responses)
{
    std::vector<Reply> replies;
    for (size_t k = 0; k < responses.size(); ++k)
        replies.push_back(summarize(responses[k], lines[first + k]));
    return replies;
}

void
checkResponses(const std::vector<Line> &lines, size_t first,
               const std::vector<Reply> &replies, const Options &options,
               Outcome *outcome)
{
    static const auto golden = readGolden(options.goldenPath);
    std::map<std::string, std::string> goldenById(golden.begin(),
                                                  golden.end());
    std::map<uint64_t, uint64_t> resultByKey;
    for (size_t k = 0; k < replies.size(); ++k) {
        const Line &line = lines[first + k];
        const Reply &reply = replies[k];
        std::string why;
        if (line.malformed) {
            if (reply.code != "unknown_name")
                why = "expected unknown_name";
        } else {
            const auto [it, fresh] =
                resultByKey.emplace(reply.key, reply.result);
            if (!reply.result || !reply.keyed)
                why = "not a result";
            else if (!fresh && it->second != reply.result)
                why = "same key, different bytes";
            else if (!line.canary.empty() &&
                     gopim::hexDigest64(reply.result) !=
                         goldenById[line.canary])
                why = "canary " + line.canary + " differs from golden";
        }
        if (why.empty() && !reply.idEchoed)
            why = "id not echoed";
        if (!why.empty())
            outcome->fail(lineId(line.text) + ": " + why);
    }
}

void
checkAgainstRerun(const std::vector<Line> &lines, size_t first,
                  const std::vector<Reply> &replies, uint64_t seed,
                  size_t samples, Outcome *outcome)
{
    gopim::Rng rng(seed ^ 0x5EEDC0DEULL);
    ServiceTarget rerun(1);
    for (size_t s = 0; s < samples && !replies.empty(); ++s) {
        const size_t k = rng.uniformInt(uint64_t{replies.size()});
        const Line &line = lines[first + k];
        rerun.send(line.text);
        if (summarize(rerun.wait(), line).line != replies[k].line)
            outcome->fail(lineId(line.text) +
                          ": differs from a one-worker rerun");
    }
}

double
sloMetFraction(const std::vector<double> &latencyMs, double limitMs,
               uint64_t failed)
{
    if (latencyMs.empty())
        return 0.0;
    size_t met = 0;
    for (double ms : latencyMs)
        met += ms <= limitMs;
    met -= std::min<size_t>(met, failed);
    return static_cast<double>(met) /
           static_cast<double>(latencyMs.size());
}

void
addLatencyMetrics(Outcome *outcome, double setupS, double startS,
                  const std::vector<double> &doneS,
                  const std::vector<double> &allLatencyMs, double limitMs,
                  double rssMiB, size_t lead)
{
    const std::vector<double> latencyMs(
        allLatencyMs.begin() + static_cast<long>(lead), allLatencyMs.end());
    const size_t n = latencyMs.size();
    const size_t slices = std::max<size_t>(n / kSliceOps, 1);
    std::vector<double> rates, p50s, p99s;
    for (size_t i = 0; i < slices; ++i) {
        const size_t from = n * i / slices, to = n * (i + 1) / slices;
        if (to == from)
            continue;
        const std::vector<double> slice(latencyMs.begin() + from,
                                        latencyMs.begin() + to);
        const size_t at = lead + from;
        const double sliceStart = at ? doneS[at - 1] : startS;
        rates.push_back(static_cast<double>(to - from) /
                        (doneS[lead + to - 1] - sliceStart));
        p50s.push_back(quantile(slice, 0.5));
        p99s.push_back(quantile(slice, 0.99));
    }
    outcome->add("setup_s", setupS, "s");
    outcome->add("ops_per_s", interquartileMean(rates), "ops/s");
    outcome->add("latency_p50_ms", interquartileMean(p50s), "ms");
    outcome->add("latency_p99_ms", interquartileMean(p99s), "ms");
    outcome->add("slo_met_frac",
                 sloMetFraction(latencyMs, limitMs, outcome->failed),
                 "ratio");
    outcome->add("peak_rss_mb", rssMiB, "MiB");
    std::cout << "# ops " << n << " in " << slices << " slice(s) after "
              << lead << " lead-in ops, "
              << n / slices / 100
              << " samples beyond p99 per slice, latency limit " << limitMs
              << " ms, error_rate "
              << (n ? static_cast<double>(outcome->failed) /
                          static_cast<double>(n)
                    : 0.0)
              << "\n# per slice: ops/s";
    for (double r : rates)
        std::cout << ' ' << r;
    std::cout << "; p50 ms";
    for (double v : p50s)
        std::cout << ' ' << v;
    std::cout << "; p99 ms";
    for (double v : p99s)
        std::cout << ' ' << v;
    std::cout << '\n';
}

} // namespace perfbench
