/**
 * @file
 * serve-miss and serve-zipf: one in-process serve::Service fed by
 * the benchmark's one thread.
 *
 * The traced run sends the same lines one at a time. Around each it
 * makes, itself, the public calls the Service makes for that
 * line (parse, resolve, cacheKey, and for a miss the whole simulation
 * path of Service::simulate), each in its own span, and checks that
 * its result bytes equal the Service's.
 */

#include <iostream>
#include <thread>

#include "alloc/allocator.hh"
#include "common/json.hh"
#include "core/accelerator.hh"
#include "core/report.hh"
#include "gcn/workload.hh"
#include "isa/trace_io.hh"
#include "isa/verify.hh"
#include "loops.hh"
#include "mapping/selective.hh"
#include "mapping/vertex_map.hh"
#include "obs/metrics.hh"
#include "workload/runner.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

namespace core = gopim::core;
namespace json = gopim::json;
namespace sim = gopim::sim;
namespace workload = gopim::workload;

constexpr size_t kMissWarmup = 200;
constexpr size_t kRerunSamples = 48;

/** Counters the traced pass accumulates (exact at a fixed seed). */
struct TraceCounts
{
    uint64_t profileVertices = 0;
    uint64_t events = 0;
    uint64_t commands = 0;
    uint64_t bytes = 0;
    uint64_t verifyIssues = 0;
};

/**
 * Service::simulate's calls, made by the benchmark: profile, plan,
 * execute (or runFamily), report, with the baseline run repeated the
 * same way. Also times the mapping and allocation calls the plan
 * makes internally, on the same inputs, and records the ISA streams
 * of event and replay runs (verifying the replayed ones).
 */
std::string
mirrorSimulate(const serve::ResolvedRequest &resolved,
               const gopim::reram::AcceleratorConfig &hw, Tracer *tracer,
               uint32_t request, TraceCounts *counts)
{
    const core::SystemConfig system = serve::configuredSystem(resolved);
    core::SystemConfig base;
    if (resolved.hasBaseline) {
        base = core::makeSystem(resolved.baseline);
        base.sim = resolved.request.sim;
        base.fault = resolved.request.fault;
    }
    const bool familyRun =
        resolved.request.family != workload::FamilyKind::GcnTrain;
    core::RunResult run, baseRun;
    if (familyRun) {
        {
            Scope span(tracer, "workload.run_family", request);
            run = workload::runFamily(resolved.spec, system, hw);
        }
        workload::StagePlan plan;
        {
            Scope span(tracer, "workload.plan", request);
            plan = workload::familyFor(resolved.spec.family)
                       .plan(resolved.spec, hw);
        }
        {
            Scope span(tracer, "alloc.allocate", request);
            const auto problem = workload::allocationProblem(plan, hw);
            if (system.allocator)
                system.allocator->allocate(problem);
        }
        if (resolved.hasBaseline) {
            Scope span(tracer, "workload.run_family", request);
            baseRun = workload::runFamily(resolved.spec, base, hw);
        }
    } else {
        const gopim::gcn::Workload &w = resolved.workload;
        gopim::gcn::VertexProfile profile;
        {
            Scope span(tracer, "gcn.profile", request);
            profile = gopim::gcn::VertexProfile::build(w.dataset, w.seed);
        }
        counts->profileVertices += profile.degrees.size();
        {
            Scope span(tracer, "mapping.select", request);
            gopim::mapping::selectImportant(
                profile.degrees, system.policy.resolvedTheta(w.dataset));
        }
        {
            Scope span(tracer, "mapping.map", request);
            gopim::mapping::mapVertices(profile.degrees, hw.crossbar.rows,
                                        system.policy.mapStrategy);
        }
        const char *planSpan = resolved.request.fault.enabled()
                                   ? "fault.build_plan"
                                   : "core.build_plan";
        auto runOn = [&](core::SystemConfig config) {
            const sim::EngineKind engine = config.sim.engine;
            auto recorder = std::make_shared<gopim::isa::StreamRecorder>();
            if (engine != sim::EngineKind::ClosedForm)
                config.sim.isaRecorder = recorder;
            const core::Accelerator accel(hw, config);
            core::StagePlan plan;
            {
                Scope span(tracer, planSpan, request);
                plan = accel.buildPlan(w, profile);
            }
            core::RunResult result;
            {
                Scope span(tracer, "core.execute_plan", request);
                result = accel.executePlan(plan, w);
            }
            counts->events += result.eventsProcessed;
            if (engine == sim::EngineKind::ClosedForm)
                return result;
            gopim::isa::TraceBundle bundle;
            {
                Scope span(tracer, "isa.encode", request);
                bundle = recorder->bundle();
                counts->bytes += gopim::isa::encodeBundle(bundle).size();
            }
            for (const auto &stream : bundle.streams)
                counts->commands += stream.commands.size();
            if (engine == sim::EngineKind::Replay) {
                Scope span(tracer, "isa.verify", request);
                for (const auto &stream : bundle.streams)
                    counts->verifyIssues +=
                        gopim::isa::verifyStream(stream).size();
            }
            return result;
        };
        run = runOn(system);
        if (resolved.hasBaseline)
            baseRun = runOn(base);
    }
    Scope span(tracer, "core.report", request);
    json::Value result = core::runResultToJson(run);
    if (resolved.hasBaseline) {
        result.set("baseline", baseRun.systemName);
        result.set("speedup", run.speedupOver(baseRun));
        result.set("energy_saving", run.energySavingOver(baseRun));
    }
    return result.dump();
}

/**
 * One line at a time through `target`. With a tracer, every line also
 * goes through the benchmark's own parse/resolve/key calls and every
 * miss through mirrorSimulate, whose bytes must equal the Service's.
 */
double
oneAtATime(ServiceTarget &target, const std::vector<Line> &lines,
           size_t first, size_t count, Tracer *tracer, TraceCounts *counts,
           std::vector<std::string> *responses, Outcome *outcome)
{
    const serve::Request defaults = servingDefaults();
    const auto hw = gopim::reram::AcceleratorConfig::paperDefault();
    serve::Service &service = target.service();
    const double start = nowS();
    for (size_t k = 0; k < count; ++k) {
        const std::string &line = lines[first + k].text;
        const auto request = static_cast<uint32_t>(k);
        Scope root(tracer, "bench.request", request);
        serve::ResolvedRequest resolved;
        bool valid = false;
        std::string key;
        if (tracer) {
            json::Value body;
            serve::Request parsed;
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
                Scope span(tracer, "serve.cache_key", request);
                key = serve::cacheKey(resolved, hw);
            }
        }
        const uint64_t missesBefore = tracer ? service.misses() : 0;
        serve::Service::Pending pending;
        {
            Scope span(tracer, "serve.submit", request);
            pending = service.submit(line, serve::Envelope::Stable);
        }
        std::string mirrored;
        const bool simulate = valid && service.misses() > missesBefore;
        if (simulate)
            mirrored = mirrorSimulate(resolved, hw, tracer, request, counts);
        {
            Scope span(tracer, "serve.wait", request);
            while (!service.ready(pending))
                std::this_thread::yield();
        }
        std::string response;
        {
            Scope span(tracer, "serve.render", request);
            response = service.finish(pending);
        }
        if (valid && (response.find("\"key\":\"" + key + "\"") ==
                          std::string::npos ||
                      (simulate && resultBytes(response) != mirrored)))
            outcome->fail("line " + std::to_string(k) +
                          ": traced calls disagree with the Service");
        responses->push_back(std::move(response));
    }
    return nowS() - start;
}

} // namespace

Outcome
tracedServe(const Options &options, const std::vector<Line> &lines,
            size_t warm, size_t count, size_t jobs, bool openLoopLoad,
            double *naturalP50Ms)
{
    Outcome outcome;
    Layers &layers = outcome.layers;

    auto registry = std::make_shared<gopim::obs::MetricsRegistry>();
    {
        ServiceTarget natural(jobs, registry);
        closedLoop(natural, lines, 0, warm);
        const PassResult pass =
            openLoopLoad ? openLoop(natural, lines, warm, count, kZipfRate,
                                    options.seed)
                         : closedLoop(natural, lines, warm, count);
        if (openLoopLoad)
            layers["bench.gen_lag_p99_ms"] = quantile(pass.lagMs, 0.99);
        if (naturalP50Ms)
            *naturalP50Ms = quantile(pass.latencyMs, 0.5);
    }
    if (const auto *wait = registry->findHistogram("serve.queue.wait_us")) {
        // Bucketed: the upper bound of the bucket holding the p99.
        const auto counts = wait->bucketCounts();
        const double target = 0.99 * static_cast<double>(wait->count());
        double seen = 0.0;
        for (size_t b = 0; b < counts.size(); ++b) {
            seen += static_cast<double>(counts[b]);
            if (seen >= target) {
                layers["serve.queue_wait_us_p99"] =
                    b < wait->bounds().size() ? wait->bounds()[b]
                                              : wait->bounds().back();
                break;
            }
        }
    }

    TraceCounts counts;
    std::vector<std::string> plain, traced;
    double untracedWall = 0.0;
    {
        ServiceTarget target(jobs);
        closedLoop(target, lines, 0, warm);
        untracedWall = oneAtATime(target, lines, warm, count, nullptr,
                                  &counts, &plain, &outcome);
    }
    Tracer tracer;
    ServiceTarget target(jobs);
    closedLoop(target, lines, 0, warm);
    const uint64_t hitsBefore = target.service().hits();
    const uint64_t missesBefore = target.service().misses();
    const uint64_t evictionsBefore =
        target.service().cacheStats().evictions;
    const double tracedWall = oneAtATime(target, lines, warm, count,
                                         &tracer, &counts, &traced,
                                         &outcome);
    outcome.attempted = count;
    if (traced != plain)
        outcome.fail("traced and untraced passes returned different bytes");
    checkResponses(lines, warm, summarizeAll(lines, warm, traced), options,
                   &outcome);

    const uint64_t hits = target.service().hits() - hitsBefore;
    const uint64_t lookups = hits + target.service().misses() - missesBefore;
    layers["serve.hit_ratio"] =
        lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                : 0.0;
    layers["serve.evictions"] = static_cast<double>(
        target.service().cacheStats().evictions - evictionsBefore);
    layers["gcn.profile_vertices"] =
        static_cast<double>(counts.profileVertices);
    layers["sim.events"] = static_cast<double>(counts.events);
    layers["isa.commands"] = static_cast<double>(counts.commands);
    layers["isa.bytes"] = static_cast<double>(counts.bytes);
    if (counts.verifyIssues)
        outcome.fail("isa::verifyStream reported " +
                     std::to_string(counts.verifyIssues) + " issue(s)");
    std::cout << "# serve.hit_ratio base: " << hits << " hits of "
              << lookups << " cache lookups\n";

    const auto totals = tracer.totals();
    for (const char *name :
         {"serve.parse", "serve.resolve", "serve.cache_key", "serve.submit",
          "serve.render", "gcn.profile", "mapping.select", "mapping.map",
          "core.execute_plan", "core.report", "alloc.allocate",
          "workload.plan", "workload.run_family", "fault.build_plan",
          "isa.verify"})
        layers[std::string(name) + "_us"] = meanSelfUs(totals, name);
    if (counts.events) {
        const auto execute = totals.find("core.execute_plan");
        layers["sim.ns_per_event"] = execute->second.selfUs * 1e3 /
                                     static_cast<double>(counts.events);
    }
    // core.build_plan covers every buildPlan call, faulty or not.
    double planCalls = 0.0, planUs = 0.0;
    for (const char *name : {"core.build_plan", "fault.build_plan"})
        if (const auto it = totals.find(name); it != totals.end()) {
            planCalls += static_cast<double>(it->second.calls);
            planUs += it->second.selfUs;
        }
    layers["core.build_plan_us"] = planCalls ? planUs / planCalls : 0.0;
    finishTrace(options, tracer, tracedWall, untracedWall, &layers);
    return outcome;
}

Outcome
runServeMiss(const Options &options)
{
    const std::vector<Line> warm = missWarmup(options.seed, kMissWarmup);
    std::vector<Line> lines;
    if (options.trace) {
        lines = warm;
        std::vector<Line> timed = missPass(options.seed, 0);
        timed.resize(options.quick ? 120 : 600);
        insertCanaries(&timed, canaries(true), options.quick ? 10 : 50);
        lines.insert(lines.end(), timed.begin(), timed.end());
        return tracedServe(options, lines, warm.size(),
                           lines.size() - warm.size(), 1, false);
    }

    std::vector<double> setups;
    std::unique_ptr<ServiceTarget> target;
    for (size_t r = 0; r < setupRepetitions(options); ++r) {
        target.reset();
        const double start = nowS();
        target = std::make_unique<ServiceTarget>(1);
        closedLoop(*target, warm, 0, warm.size());
        setups.push_back(nowS() - start);
    }

    // Enough unique requests for 4000 req/s, well above one worker's
    // rate; the loop stops at the time limit.
    const auto passes = static_cast<uint32_t>(options.seconds + 1);
    for (uint32_t p = 0; p < passes; ++p) {
        const std::vector<Line> pass = missPass(options.seed, p);
        lines.insert(lines.end(), pass.begin(), pass.end());
    }
    insertCanaries(&lines, canaries(true), 50);
    // One request in flight: each latency is that request's own
    // service time, not the sum of the queue ahead of it.
    const PassResult pass = closedLoop(*target, lines, 0, lines.size(),
                                       options.seconds, options.flipByte, 1);
    const double rss = peakRssMiB(false);

    Outcome outcome;
    outcome.attempted = pass.replies.size();
    checkResponses(lines, 0, pass.replies, options, &outcome);
    checkAgainstRerun(lines, 0, pass.replies, options.seed,
                      kRerunSamples, &outcome);
    addLatencyMetrics(&outcome, median(setups), pass.startS, pass.doneS,
                      pass.latencyMs, kMissLimitMs, rss);
    return outcome;
}

std::vector<Line>
zipfWorkloadLines(const Options &options, size_t *warm, size_t *lead)
{
    *warm = options.quick ? 300 : kZipfWarmup;
    *lead = options.trace || options.quick
                ? 0
                : static_cast<size_t>(kZipfRate * kZipfLeadS);
    const auto count = static_cast<size_t>(
        options.trace ? (options.quick ? 400 : 2500)
                      : kZipfRate * options.seconds);
    std::vector<Line> lines =
        zipfStream(options.seed, *warm + *lead + count);
    std::vector<Line> timed(lines.begin() +
                                static_cast<long>(*warm + *lead),
                            lines.end());
    insertCanaries(&timed, canaries(false), options.quick ? 10 : 100);
    lines.resize(*warm + *lead);
    lines.insert(lines.end(), timed.begin(), timed.end());
    return lines;
}

Outcome
runServeZipf(const Options &options)
{
    size_t warm = 0, lead = 0;
    const std::vector<Line> lines = zipfWorkloadLines(options, &warm, &lead);
    const size_t count = lines.size() - warm;
    if (options.trace)
        return tracedServe(options, lines, warm, count, 2, true);

    std::vector<double> setups;
    std::unique_ptr<ServiceTarget> target;
    for (size_t r = 0; r < setupRepetitions(options); ++r) {
        target.reset();
        const double start = nowS();
        target = std::make_unique<ServiceTarget>(2);
        closedLoop(*target, lines, 0, warm);
        setups.push_back(nowS() - start);
    }
    std::cout << "# schedule: open loop at " << kZipfRate
              << " req/s, Poisson arrivals\n";
    const PassResult pass =
        openLoop(*target, lines, warm, count, kZipfRate, options.seed,
                 options.flipByte);
    const double rss = peakRssMiB(false);
    const auto cache = target->service().cacheStats();
    std::cout << "# hits " << target->service().hits() << ", misses "
              << target->service().misses() << ", evictions "
              << cache.evictions << ", generator lag p99 "
              << quantile(pass.lagMs, 0.99) << " ms\n";

    Outcome outcome;
    outcome.attempted = pass.replies.size();
    checkResponses(lines, warm, pass.replies, options, &outcome);
    checkAgainstRerun(lines, warm, pass.replies, options.seed,
                      kRerunSamples, &outcome);
    addLatencyMetrics(&outcome, median(setups), pass.startS, pass.doneS,
                      pass.latencyMs, kZipfLimitMs, rss, lead);
    return outcome;
}

} // namespace perfbench
