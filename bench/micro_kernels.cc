/**
 * @file
 * google-benchmark micro-benchmarks for the simulator's hot kernels:
 * the greedy heap allocator vs the bottleneck-sweep reference (the
 * paper's decision-time claim), the allocation memo's hit path,
 * pipeline scheduling, vertex mapping,
 * the degree ranking, the vertex-profile build, graph generation, and
 * the MVM kernel of the tensor substrate.
 *
 * --json-out=PATH writes the timings through the repo's own JSON
 * writer (common/json.hh, the same machine-readable surface the
 * BENCH_*.json artifacts and core::runResultToJson use), so CI can
 * archive kernel timings without parsing benchmark's console format.
 */

#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "alloc/allocator.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "alloc/dp.hh"
#include "alloc/greedy_heap.hh"
#include "alloc/memo.hh"
#include "common/rng.hh"
#include "core/accelerator.hh"
#include "core/systems.hh"
#include "gcn/time_model.hh"
#include "gcn/workload.hh"
#include "graph/generators.hh"
#include "mapping/vertex_map.hh"
#include "pipeline/schedule.hh"
#include "tensor/init.hh"
#include "tensor/ops.hh"

namespace {

using namespace gopim;

alloc::AllocationProblem
makeProblem(size_t stages, uint64_t spare, uint64_t seed)
{
    Rng rng(seed);
    alloc::AllocationProblem p;
    for (size_t i = 0; i < stages; ++i) {
        p.stages.push_back({pipeline::StageType::Combination,
                            static_cast<uint32_t>(i / 4 + 1)});
        p.scalableTimesNs.push_back(rng.uniform(10.0, 5000.0));
        p.fixedTimesNs.push_back(rng.uniform(0.0, 50.0));
        p.crossbarsPerReplica.push_back(
            1 + rng.uniformInt(uint64_t{500}));
    }
    p.spareCrossbars = spare;
    p.numMicroBatches = 64;
    p.maxUsefulReplicas = 256;
    return p;
}

void
BM_GreedyHeapAllocator(benchmark::State &state)
{
    const auto p = makeProblem(static_cast<size_t>(state.range(0)),
                               1'000'000, 7);
    const alloc::GreedyHeapAllocator allocator;
    for (auto _ : state) {
        auto result = allocator.allocate(p);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_GreedyHeapAllocator)->Arg(8)->Arg(12)->Arg(24);

/** Passes allocate() through and keeps the last problem it saw. */
class CapturingAllocator : public alloc::Allocator
{
  public:
    alloc::AllocationResult
    allocate(const alloc::AllocationProblem &problem) const override
    {
        captured = problem;
        return alloc::GreedyHeapAllocator().allocate(problem);
    }
    std::string name() const override { return "Capturing"; }

    mutable alloc::AllocationProblem captured;
};

/** The problem GoPIM's plan hands Algorithm 1 on Cora. */
alloc::AllocationProblem
coraGoPimProblem()
{
    const auto workload = gcn::Workload::paperDefault("Cora");
    auto system = core::makeSystem(core::SystemKind::GoPim);
    auto capturing = std::make_shared<CapturingAllocator>();
    system.allocator = capturing;
    core::Accelerator(reram::AcceleratorConfig::paperDefault(), system)
        .buildPlan(workload, gcn::VertexProfile::build(workload.dataset,
                                                       workload.seed));
    return capturing->captured;
}

void
BM_GreedyHeapAllocate(benchmark::State &state)
{
    // A cold Algorithm 1 run on a real serve-miss problem: what a
    // Service's allocation memo saves on every hit.
    const auto problem = coraGoPimProblem();
    const alloc::GreedyHeapAllocator allocator;
    for (auto _ : state) {
        auto result = allocator.allocate(problem);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_GreedyHeapAllocate);

void
BM_AllocationMemoHit(benchmark::State &state)
{
    // The same problem answered by the memo: exact key, fingerprint,
    // bucket lookup, full-key compare, result copy.
    const auto problem = coraGoPimProblem();
    alloc::AllocationMemo memo;
    const auto allocator = alloc::memoized(
        std::make_shared<alloc::GreedyHeapAllocator>(), &memo);
    allocator->allocate(problem);
    for (auto _ : state) {
        auto result = allocator->allocate(problem);
        benchmark::DoNotOptimize(result);
    }
    GOPIM_ASSERT(memo.misses() == 1, "memo hit path missed");
}
BENCHMARK(BM_AllocationMemoHit);

void
BM_BottleneckSweepAllocator(benchmark::State &state)
{
    // The expensive reference decision procedure (Section V-B says
    // DP-style decisions can take days at scale; compare decision
    // times against the greedy above).
    const auto p = makeProblem(static_cast<size_t>(state.range(0)),
                               1'000'000, 7);
    const alloc::BottleneckSweepAllocator allocator(256);
    for (auto _ : state) {
        auto result = allocator.allocate(p);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_BottleneckSweepAllocator)->Arg(8)->Arg(12);

void
BM_PipelineSchedule(benchmark::State &state)
{
    Rng rng(9);
    std::vector<double> times(12);
    for (auto &t : times)
        t = rng.uniform(1.0, 100.0);
    const auto b = static_cast<uint32_t>(state.range(0));
    for (auto _ : state) {
        auto result = pipeline::schedulePipelined(times, b);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_PipelineSchedule)->Arg(64)->Arg(1024);

void
BM_InterleavedMapping(benchmark::State &state)
{
    Rng rng(11);
    const auto degrees = graph::powerLawDegreeSequence(
        static_cast<uint64_t>(state.range(0)), 50.0, 2.1, 10000, rng);
    for (auto _ : state) {
        auto assignment = mapping::mapVertices(
            degrees, 64, mapping::VertexMapStrategy::Interleaved);
        benchmark::DoNotOptimize(assignment);
    }
}
BENCHMARK(BM_InterleavedMapping)->Arg(10000)->Arg(100000);

void
BM_RankByDegree(benchmark::State &state)
{
    // arxiv-sized: 169343 vertices, degrees capped at 50 * 13.7.
    Rng rng(11);
    const auto degrees = graph::powerLawDegreeSequence(
        static_cast<uint64_t>(state.range(0)), 13.7, 2.1, 685, rng);
    for (auto _ : state) {
        auto order = mapping::rankByDegree(degrees);
        benchmark::DoNotOptimize(order);
    }
}
BENCHMARK(BM_RankByDegree)->Arg(169343);

void
BM_VertexProfileBuild(benchmark::State &state)
{
    const auto workload = gcn::Workload::paperDefault("arxiv");
    for (auto _ : state) {
        auto profile =
            gcn::VertexProfile::build(workload.dataset, workload.seed);
        benchmark::DoNotOptimize(profile);
    }
}
BENCHMARK(BM_VertexProfileBuild);

void
BM_MappingArtifactsBuild(benchmark::State &state)
{
    // arxiv, GoPIM (interleaved + selective updating: one degree
    // ranking over the profile) vs Serial (full update: the closed
    // form over the group count, no profile needed).
    const auto workload = gcn::Workload::paperDefault("arxiv");
    const bool goPim = state.range(0) != 0;
    gcn::ExecutionPolicy policy;
    if (goPim) {
        policy.selectiveUpdate = true;
        policy.mapStrategy = mapping::VertexMapStrategy::Interleaved;
    }
    const auto profile =
        policy.readsDegrees(workload.dataset)
            ? gcn::VertexProfile::build(workload.dataset, workload.seed)
            : gcn::VertexProfile{};
    state.SetLabel(goPim ? "GoPIM" : "Serial");
    for (auto _ : state) {
        auto artifacts = gcn::MappingArtifacts::build(
            profile, policy, workload.dataset, 64);
        benchmark::DoNotOptimize(artifacts);
    }
}
BENCHMARK(BM_MappingArtifactsBuild)->Arg(1)->Arg(0);

void
BM_ChungLuGeneration(benchmark::State &state)
{
    Rng rng(13);
    const auto degrees = graph::powerLawDegreeSequence(
        static_cast<uint64_t>(state.range(0)), 16.0, 2.1, 2000, rng);
    for (auto _ : state) {
        Rng local(17);
        auto g = graph::chungLu(degrees, local);
        benchmark::DoNotOptimize(g);
    }
}
BENCHMARK(BM_ChungLuGeneration)->Arg(10000)->Arg(50000);

void
BM_StageCostModel(benchmark::State &state)
{
    const gcn::StageTimeModel model(
        reram::AcceleratorConfig::paperDefault());
    const auto workload = gcn::Workload::paperDefault("arxiv");
    const auto profile =
        gcn::VertexProfile::build(workload.dataset, workload.seed);
    gcn::ExecutionPolicy policy;
    policy.selectiveUpdate = true;
    policy.mapStrategy = mapping::VertexMapStrategy::Interleaved;
    const auto artifacts = gcn::MappingArtifacts::build(
        profile, policy, workload.dataset, 64);
    for (auto _ : state) {
        auto costs = model.allCosts(workload, policy, artifacts);
        benchmark::DoNotOptimize(costs);
    }
}
BENCHMARK(BM_StageCostModel);

void
BM_DenseMatmul(benchmark::State &state)
{
    Rng rng(19);
    const auto n = static_cast<size_t>(state.range(0));
    const auto a = tensor::uniformInit(n, n, -1.0f, 1.0f, rng);
    const auto b = tensor::uniformInit(n, n, -1.0f, 1.0f, rng);
    for (auto _ : state) {
        auto c = tensor::matmul(a, b);
        benchmark::DoNotOptimize(c);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(n) * n * n);
}
BENCHMARK(BM_DenseMatmul)->Arg(64)->Arg(256);

/**
 * Console reporter that additionally collects every run into a
 * common/json document instead of benchmark's own JSON dialect, so
 * the output matches the BENCH_*.json artifacts the ablation benches
 * emit. Riding on the display reporter avoids the library's
 * requirement that file reporters come with --benchmark_out.
 */
class JsonCollector : public benchmark::ConsoleReporter
{
  public:
    void ReportRuns(const std::vector<Run> &runs) override
    {
        benchmark::ConsoleReporter::ReportRuns(runs);
        for (const auto &run : runs) {
            if (run.error_occurred)
                continue;
            json::Value v = json::Value::object();
            v.set("name", run.benchmark_name());
            v.set("iterations",
                  static_cast<double>(run.iterations));
            v.set("real_time_ns", run.GetAdjustedRealTime());
            v.set("cpu_time_ns", run.GetAdjustedCPUTime());
            if (const auto it = run.counters.find("items_per_second");
                it != run.counters.end())
                v.set("items_per_second",
                      static_cast<double>(it->second));
            runs_.push(std::move(v));
        }
    }

    json::Value document() &&
    {
        json::Value doc = json::Value::object();
        doc.set("bench", "micro_kernels");
        doc.set("runs", std::move(runs_));
        return doc;
    }

  private:
    json::Value runs_ = json::Value::array();
};

} // namespace

int
main(int argc, char **argv)
{
    // Peel off --json-out before benchmark sees the arguments; every
    // other flag passes through to the library untouched.
    std::string jsonOut;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        constexpr const char *kFlag = "--json-out=";
        if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0)
            jsonOut = argv[i] + std::strlen(kFlag);
        else
            args.push_back(argv[i]);
    }
    int filteredArgc = static_cast<int>(args.size());
    benchmark::Initialize(&filteredArgc, args.data());
    if (benchmark::ReportUnrecognizedArguments(filteredArgc,
                                               args.data()))
        return 1;

    if (jsonOut.empty()) {
        benchmark::RunSpecifiedBenchmarks();
    } else {
        JsonCollector collector;
        benchmark::RunSpecifiedBenchmarks(&collector);
        std::ofstream out(jsonOut);
        if (!out)
            fatal("cannot open --json-out file ", jsonOut);
        out << std::move(collector).document().dumpIndented() << '\n';
        inform("wrote kernel timings to ", jsonOut);
    }
    benchmark::Shutdown();
    return 0;
}
