/**
 * @file
 * perfbench: runs one workload for one seed and prints, as its
 * last stdout line, {"correct","attempted","failed","metrics"} with
 * the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1). Lines before it starting with '#' are human notes.
 *
 *   perfbench --workload serve-zipf --seed 3 --seconds 10 --trace 0
 *
 * perfbench/run.py builds this binary and passes the paths it needs.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "workloads.hh"

using namespace perfbench;

namespace {

struct LayerMetric
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric, printed by every traced run (0 = the
 *  workload does not reach that layer). */
const LayerMetric kLayerMetrics[] = {
    {"serve.parse_us", "us"},
    {"serve.resolve_us", "us"},
    {"serve.cache_key_us", "us"},
    {"serve.submit_us", "us"},
    {"serve.render_us", "us"},
    {"serve.hit_ratio", "ratio"},
    {"serve.evictions", "count"},
    {"serve.queue_wait_us_p99", "us"},
    {"gcn.profile_us", "us"},
    {"gcn.profile_vertices", "count"},
    {"mapping.select_us", "us"},
    {"mapping.map_us", "us"},
    {"core.build_plan_us", "us"},
    {"core.execute_plan_us", "us"},
    {"core.report_us", "us"},
    {"alloc.allocate_us", "us"},
    {"workload.plan_us", "us"},
    {"workload.run_family_us", "us"},
    {"fault.build_plan_us", "us"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"isa.commands", "count"},
    {"isa.bytes", "bytes"},
    {"isa.verify_us", "us"},
    {"cluster.route_us", "us"},
    {"cluster.shard_imbalance", "ratio"},
    {"cluster.overhead_ms", "ms"},
    {"cluster.reissued", "count"},
    {"cluster.shed", "count"},
    {"cluster.restarts", "count"},
    {"bench.gen_lag_p99_ms", "ms"},
    {"bench.span_coverage", "ratio"},
    {"bench.tracing_overhead", "ratio"},
};

std::string
number(double value)
{
    if (!std::isfinite(value))
        value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

int
usage(const std::string &problem)
{
    std::cerr << "perfbench: " << problem
              << "\nusage: perfbench --workload serve-miss|serve-zipf|"
                 "router-zipf --seed N --seconds S --trace 0|1"
                 " [--quick] [--flip-byte] [--golden PATH] [--trace-out PATH]"
                 " --serve-bin PATH --port-dir DIR\n";
    return 2;
}

} // namespace

namespace perfbench {

size_t
setupRepetitions(const Options &options)
{
    return options.quick ? 1 : 5;
}

double
meanSelfUs(const std::map<std::string, Tracer::Totals> &totals,
           const std::string &name)
{
    const auto it = totals.find(name);
    if (it == totals.end() || it->second.calls == 0)
        return 0.0;
    return it->second.selfUs / static_cast<double>(it->second.calls);
}

void
finishTrace(const Options &options, const Tracer &tracer,
            double tracedWallS, double untracedWallS, Layers *layers)
{
    (*layers)["bench.span_coverage"] =
        tracer.layerSelfUs() / (tracedWallS * 1e6);
    (*layers)["bench.tracing_overhead"] = tracedWallS / untracedWallS;
    std::cout << "# traced wall " << tracedWallS << " s, untraced wall "
              << untracedWallS << " s, " << tracer.size() << " spans\n";
    for (const auto &[name, totals] : tracer.totals())
        std::cout << "#   span " << name << ": " << totals.calls
                  << " calls, " << totals.selfUs / 1e3 << " ms self ("
                  << 100.0 * totals.selfUs / (tracedWallS * 1e6)
                  << "% of traced wall)\n";
    if (!options.traceOut.empty() &&
        !tracer.writeChromeTrace(options.traceOut))
        std::cerr << "perfbench: cannot write " << options.traceOut << '\n';
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    Options options;
    options.selfPath = argv[0];
    bool routerChild = false;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string value;
        if (const size_t eq = arg.find('='); eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg.resize(eq);
        } else if (arg != "--quick" && arg != "--flip-byte" &&
                   arg != "--router-child") {
            if (i + 1 >= argc)
                return usage("missing value for " + arg);
            value = argv[++i];
        }
        try {
            if (arg == "--workload") {
                options.workload = value;
            } else if (arg == "--seed") {
                options.seed = std::stoull(value);
                haveSeed = true;
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value);
                haveSeconds = options.seconds > 0.0;
            } else if (arg == "--trace") {
                if (value != "0" && value != "1")
                    return usage("--trace takes 0 or 1");
                options.trace = value == "1";
                haveTrace = true;
            } else if (arg == "--quick") {
                options.quick = true;
            } else if (arg == "--flip-byte") {
                options.flipByte = true;
            } else if (arg == "--router-child") {
                routerChild = true;
            } else if (arg == "--golden") {
                options.goldenPath = value;
            } else if (arg == "--trace-out") {
                options.traceOut = value;
            } else if (arg == "--serve-bin") {
                options.serveBin = value;
            } else if (arg == "--port-dir") {
                options.portDir = value;
            } else {
                return usage("unknown argument " + arg);
            }
        } catch (const std::exception &) {
            return usage("bad value for " + arg);
        }
    }
    if (routerChild)
        return routerChildMain(options);
    if (!haveSeed || !haveSeconds || !haveTrace)
        return usage("--seed, --seconds and --trace are required");

    Outcome outcome;
    if (options.workload == "serve-miss")
        outcome = runServeMiss(options);
    else if (options.workload == "serve-zipf")
        outcome = runServeZipf(options);
    else if (options.workload == "router-zipf")
        outcome = runRouterZipf(options);
    else
        return usage("unknown workload '" + options.workload + "'");

    if (outcome.attempted == 0)
        outcome.fail("no operation completed");

    std::ostringstream metrics;
    const char *sep = "";
    if (options.trace) {
        for (const LayerMetric &m : kLayerMetrics) {
            const auto it = outcome.layers.find(m.name);
            metrics << sep << "\"" << m.name << "\":{\"value\":"
                    << number(it == outcome.layers.end() ? 0.0 : it->second)
                    << ",\"unit\":\"" << m.unit << "\"}";
            sep = ",";
        }
    } else {
        for (const Metric &m : outcome.metrics) {
            metrics << sep << "\"" << m.name
                    << "\":{\"value\":" << number(m.value) << ",\"unit\":\""
                    << m.unit << "\"}";
            sep = ",";
        }
    }
    const uint64_t attempted = std::max(outcome.attempted, outcome.failed);
    std::cout << "{\"correct\":" << (outcome.correct ? "true" : "false")
              << ",\"attempted\":" << attempted
              << ",\"failed\":" << outcome.failed << ",\"metrics\":{"
              << metrics.str() << "}}" << std::endl;
    return 0;
}
