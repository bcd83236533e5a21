#include "cluster/worker.hh"

#include "cluster/wire.hh"
#include "common/net.hh"
#include "common/ordered_pump.hh"
#include "serve/request.hh"

namespace gopim::cluster {

WorkerStats
pumpFramedConnection(serve::Service &service, int fd,
                     const WorkerOptions &options)
{
    WorkerStats stats;

    // --- hello exchange -------------------------------------------
    std::string payload;
    if (net::readFrame(fd, &payload) != net::IoStatus::Ok)
        return stats;
    Hello hello;
    if (std::string problem = parseHello(payload, &hello);
        !problem.empty()) {
        net::writeFrame(
            fd, serve::errorResponseLine(
                    "", {"protocol_mismatch", "", problem}));
        return stats;
    }
    if (!hello.defaultsFp.empty() &&
        hello.defaultsFp != options.defaultsFp) {
        net::writeFrame(
            fd,
            serve::errorResponseLine(
                "", {"defaults_mismatch", "",
                     "serving defaults mismatch: worker '" +
                         options.defaultsFp + "' vs peer '" +
                         hello.defaultsFp +
                         "' (start both with identical --engine/"
                         "--seed/fault flags)"}));
        return stats;
    }
    const serve::Envelope envelope = hello.envelopeSet
                                         ? hello.envelope
                                         : options.defaultEnvelope;
    if (!net::writeFrame(fd, helloOkLine(options.defaultsFp)))
        return stats;

    // --- pipelined request/response pump --------------------------
    // This thread reads frames and submits them (submission order =
    // frame order, which fixes the hit/miss decisions); the pump's
    // writer finishes fronts in that same order, so response frames
    // are deterministic per connection for any worker pool size.
    bool peerGone = false;
    pumpInOrder<serve::Service::Pending>(
        [&](serve::Service::Pending *pending) {
            std::string line;
            if (net::readFrame(fd, &line) != net::IoStatus::Ok)
                return false;
            ++stats.requests;
            *pending = service.submit(line, envelope);
            return true;
        },
        [&](const serve::Service::Pending &pending) {
            return service.ready(pending);
        },
        [&](serve::Service::Pending &pending) {
            const std::string line = service.finish(pending);
            if (line.rfind("{\"type\":\"error\"", 0) == 0)
                ++stats.errors;
            // A vanished peer stops the writes but not the drain:
            // every submitted request still completes through the
            // service so its cache/metrics state stays coherent.
            if (!peerGone && !net::writeFrame(fd, line))
                peerGone = true;
        },
        [] {});
    return stats;
}

WorkerStats
serveFramed(serve::Service &service, int listenFd,
            const WorkerOptions &options,
            const volatile std::sig_atomic_t *stop)
{
    WorkerStats total;
    while (!*stop) {
        const int conn = net::acceptWithTimeout(listenFd, 200);
        if (conn < 0)
            continue;
        net::Fd guard(conn);
        const WorkerStats stats =
            pumpFramedConnection(service, conn, options);
        total.requests += stats.requests;
        total.errors += stats.errors;
    }
    return total;
}

} // namespace gopim::cluster
