/**
 * @file
 * The benchmark workloads and their fixed parameters. Each run
 * function performs either the untraced run (end-to-end metrics) or
 * the traced run (per-layer metrics) selected by Options::trace.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <map>
#include <string>

#include "bench.hh"
#include "streams.hh"
#include "tracer.hh"

namespace perfbench {

/** Open-loop arrival rate of serve-zipf and router-zipf (req/s). */
constexpr double kZipfRate = 600.0;
/** Stream lines serve-zipf and router-zipf send during setup. */
constexpr size_t kZipfWarmup = 6000;
/**
 * Seconds of open-loop lead-in before the timed phase: after setup
 * the router's held responses build up over several seconds (see
 * NOTES.md), so timing starts once that has settled.
 */
constexpr double kZipfLeadS = 6.0;
/** Per-op latency limits behind slo_met_frac (ms). */
constexpr double kMissLimitMs = 100.0;
constexpr double kZipfLimitMs = 50.0;

/** Per-layer values a traced run measured, by metric name. */
using Layers = std::map<std::string, double>;

Outcome runServeMiss(const Options &options);
/** serve-zipf: not in BENCHMARK.json (see NOTES.md), still runnable. */
Outcome runServeZipf(const Options &options);
Outcome runRouterZipf(const Options &options);

/**
 * serve-zipf's lines: `*warm` setup lines, `*lead` untimed lead-in
 * lines (none in traced or quick runs), then the timed ones (with the
 * canaries) for this run's mode.
 */
std::vector<Line> zipfWorkloadLines(const Options &options, size_t *warm,
                                    size_t *lead);

/**
 * The traced run of a serving workload on an in-process Service: a
 * natural-load pass (queue wait, generator lag; its p50 goes to
 * `naturalP50Ms` when given), then the same lines one at a time,
 * untraced and traced, each from a fresh, warmed Service.
 */
Outcome tracedServe(const Options &options, const std::vector<Line> &lines,
                    size_t warm, size_t count, size_t jobs,
                    bool openLoopLoad, double *naturalP50Ms = nullptr);

/** Entry point of the router child process (--router-child). */
int routerChildMain(const Options &options);

/** Times each setup repetition; the median is setup_s. */
size_t setupRepetitions(const Options &options);

/** Mean self time per call (us) of a span name; 0 if never called. */
double meanSelfUs(const std::map<std::string, Tracer::Totals> &totals,
                  const std::string &name);

/**
 * Fill the bench.* health metrics and write the Chrome trace.
 * `tracedWallS` is the traced pass's wall time, `untracedWallS` the
 * same ops' wall time without tracing.
 */
void finishTrace(const Options &options, const Tracer &tracer,
                 double tracedWallS, double untracedWallS, Layers *layers);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
