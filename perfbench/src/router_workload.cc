/**
 * @file
 * router-zipf: serve-zipf's stream, schedule and latency limit, sent
 * through a cluster::Router with two spawned `gopim_serve --jobs=1`
 * shards. The router runs in a child process of this executable
 * (routerChildMain): gopim_router's stdin mode would put its shard
 * port files in a fixed system temp directory and buffers stdout in
 * 4 KiB blocks, while this launcher keeps the port files in the build
 * directory and writes each response as it is emitted. Placement,
 * framing, admission and the per-shard caches are the library's own.
 */

#include <algorithm>
#include <csignal>
#include <iostream>

#include "cluster/router.hh"
#include "cluster/shards.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "loops.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

namespace json = gopim::json;

constexpr size_t kShards = 2;

std::vector<std::string>
shardNames()
{
    std::vector<std::string> names;
    for (size_t i = 0; i < kShards; ++i)
        names.push_back("shard" + std::to_string(i));
    return names;
}

/** A spawned router, warmed with lines [0, warm). */
std::unique_ptr<RouterTarget>
startRouter(const Options &options, const std::vector<Line> &lines,
            size_t warm)
{
    auto router = std::make_unique<RouterTarget>(options);
    size_t received = 0;
    std::string response;
    for (size_t k = 0; k < warm; ++k) {
        router->send(lines[k].text);
        while (router->poll(&response))
            ++received;
    }
    router->collectWithProbes(warm - received);
    return router;
}

/** One field of the router's stats trailer. */
double
trailerField(const std::string &trailer, const char *name)
{
    json::Value stats;
    std::string error;
    if (!json::Value::parse(trailer, &stats, &error))
        return 0.0;
    const json::Value *field = stats.find(name);
    return field ? field->asDouble() : 0.0;
}

/**
 * Send every line as fast as the pipe takes it, reading whatever
 * responses are ready in between, then end input and drain. With a
 * tracer, the benchmark also parses, resolves, keys and places each
 * line the way the router does.
 */
double
pipelined(RouterTarget &router, const std::vector<Line> &lines,
          size_t first, size_t count, Tracer *tracer,
          std::vector<std::string> *responses, std::vector<size_t> *perShard)
{
    const serve::Request defaults = servingDefaults();
    const auto hw = gopim::reram::AcceleratorConfig::paperDefault();
    const std::vector<std::string> names = shardNames();
    std::string response;
    const double start = nowS();
    for (size_t k = 0; k < count; ++k) {
        const std::string &line = lines[first + k].text;
        const auto request = static_cast<uint32_t>(k);
        Scope root(tracer, "bench.request", request);
        if (tracer) {
            json::Value body;
            serve::Request parsed;
            serve::ResolvedRequest resolved;
            bool valid = false;
            {
                Scope span(tracer, "serve.parse", request);
                std::string error;
                valid = json::Value::parse(line, &body, &error) &&
                        serve::parseRequest(body, defaults, &parsed).ok();
            }
            if (valid) {
                Scope span(tracer, "serve.resolve", request);
                valid = serve::resolveRequest(parsed, &resolved).ok();
            }
            if (valid) {
                std::string key;
                {
                    Scope span(tracer, "serve.cache_key", request);
                    key = serve::cacheKey(resolved, hw);
                }
                Scope span(tracer, "cluster.route", request);
                ++(*perShard)[gopim::cluster::rendezvousShard(key, names)];
            }
        }
        {
            Scope span(tracer, "cluster.send", request);
            router.send(line);
        }
        Scope span(tracer, "cluster.receive", request);
        while (router.poll(&response))
            responses->push_back(std::move(response));
    }
    Scope root(tracer, "bench.drain", static_cast<uint32_t>(count));
    Scope span(tracer, "cluster.drain", static_cast<uint32_t>(count));
    router.endOfInput();
    while (responses->size() < count)
        responses->push_back(router.wait());
    return nowS() - start;
}

Outcome
tracedRouter(const Options &options, const std::vector<Line> &lines,
             size_t warm, size_t count)
{
    // The same lines through the in-process Service first: the traced
    // serving path (every layer below the cluster), and the p50 the
    // router's is compared with, under the same schedule.
    Options serveOptions = options;
    if (const size_t dot = serveOptions.traceOut.rfind('.');
        dot != std::string::npos)
        serveOptions.traceOut.insert(dot, "-serve");
    double serveP50 = 0.0;
    Outcome outcome =
        tracedServe(serveOptions, lines, warm, count, 2, true, &serveP50);
    Layers &layers = outcome.layers;
    const double serveCoverage = layers["bench.span_coverage"];
    const double serveOverhead = layers["bench.tracing_overhead"];
    const double serveLag = layers["bench.gen_lag_p99_ms"];
    {
        auto router = startRouter(options, lines, warm);
        const PassResult pass =
            openLoop(*router, lines, warm, count, kZipfRate, options.seed);
        std::string trailer;
        router->shutdown(&trailer);
        layers["cluster.overhead_ms"] =
            quantile(pass.latencyMs, 0.5) - serveP50;
        layers["bench.gen_lag_p99_ms"] = quantile(pass.lagMs, 0.99);
        for (const char *field : {"reissued", "shed", "restarts"})
            layers[std::string("cluster.") + field] =
                trailerField(trailer, field);
    }

    std::vector<size_t> perShard(kShards, 0);
    std::vector<std::string> plain, traced;
    double untracedWall = 0.0;
    {
        auto router = startRouter(options, lines, warm);
        untracedWall = pipelined(*router, lines, warm, count, nullptr,
                                 &plain, &perShard);
    }
    Tracer tracer;
    double tracedWall = 0.0;
    {
        auto router = startRouter(options, lines, warm);
        tracedWall = pipelined(*router, lines, warm, count, &tracer,
                               &traced, &perShard);
    }
    outcome.attempted += count;
    if (traced != plain)
        outcome.fail("traced and untraced router passes differ");
    checkResponses(lines, warm, summarizeAll(lines, warm, traced), options,
                   &outcome);

    size_t most = 0, total = 0;
    for (size_t n : perShard) {
        most = std::max(most, n);
        total += n;
    }
    layers["cluster.shard_imbalance"] =
        total ? static_cast<double>(most) * kShards /
                    static_cast<double>(total)
              : 0.0;
    const auto totals = tracer.totals();
    layers["cluster.route_us"] = meanSelfUs(totals, "cluster.route");
    finishTrace(options, tracer, tracedWall, untracedWall, &layers);
    // Health of the two traced passes together: the worse of each.
    layers["bench.span_coverage"] =
        std::min(layers["bench.span_coverage"], serveCoverage);
    layers["bench.tracing_overhead"] =
        std::max(layers["bench.tracing_overhead"], serveOverhead);
    layers["bench.gen_lag_p99_ms"] =
        std::max(layers["bench.gen_lag_p99_ms"], serveLag);
    return outcome;
}

} // namespace

Outcome
runRouterZipf(const Options &options)
{
    size_t warm = 0, lead = 0;
    const std::vector<Line> lines = zipfWorkloadLines(options, &warm, &lead);
    const size_t count = lines.size() - warm;
    if (options.trace)
        return tracedRouter(options, lines, warm, count);

    std::vector<double> setups;
    std::unique_ptr<RouterTarget> router;
    for (size_t r = 0; r < setupRepetitions(options); ++r) {
        if (router) {
            std::string trailer;
            router->shutdown(&trailer);
        }
        const double start = nowS();
        router = startRouter(options, lines, warm);
        setups.push_back(nowS() - start);
    }
    std::cout << "# schedule: open loop at " << kZipfRate
              << " req/s, Poisson arrivals\n";
    const PassResult pass =
        openLoop(*router, lines, warm, count, kZipfRate, options.seed,
                 options.flipByte);
    std::string trailer;
    if (router->shutdown(&trailer) != 0)
        gopim::fatal("perfbench: the router exited with an error");
    const double rss = peakRssMiB(true);
    std::cout << "# router stats " << trailer << '\n';

    Outcome outcome;
    outcome.attempted = pass.replies.size();
    checkResponses(lines, warm, pass.replies, options, &outcome);
    // serve-zipf's stable output for the same lines: every line equal
    // (compared by 64-bit FNV-1a digest).
    ServiceTarget service(2);
    const PassResult single =
        closedLoop(service, lines, warm, count);
    for (size_t k = 0; k < pass.replies.size(); ++k)
        if (pass.replies[k].line != single.replies[k].line)
            outcome.fail("line " + std::to_string(k) +
                         ": router bytes differ from the single process");
    addLatencyMetrics(&outcome, median(setups), pass.startS, pass.doneS,
                      pass.latencyMs, kZipfLimitMs, rss, lead);
    return outcome;
}

int
routerChildMain(const Options &options)
{
    // A closed stdout (the benchmark went away) must end the stream, not
    // the process: ~Router then still reaps the shards.
    std::signal(SIGPIPE, SIG_IGN);
    gopim::cluster::RouterConfig config;
    config.defaults = servingDefaults();
    for (const std::string &name : shardNames()) {
        gopim::cluster::ShardSpec spec;
        spec.name = name;
        spec.command = {options.serveBin, "--jobs=1"};
        spec.portFile = options.portDir + "/" + name + ".port";
        config.shards.push_back(std::move(spec));
    }
    gopim::cluster::Router router(std::move(config));
    if (const std::string problem = router.start(); !problem.empty()) {
        std::cerr << "perfbench: cluster start failed: " << problem << '\n';
        return 1;
    }
    std::ios::sync_with_stdio(false);
    std::cout << std::unitbuf;
    router.processStream(std::cin, std::cout);
    std::cout << router.statsJson().dump() << '\n';
    return 0;
}

} // namespace perfbench
