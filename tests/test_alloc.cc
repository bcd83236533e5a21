/**
 * @file
 * Unit tests for the allocation module: the indexed max-heap, the
 * baseline policies, Algorithm 1's greedy allocator (including
 * optimality against exhaustive search on small instances and the
 * Fig. 5 example), the bottleneck-sweep reference, and the exact
 * allocation memo.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "alloc/allocator.hh"
#include "alloc/basic.hh"
#include "alloc/dp.hh"
#include "alloc/greedy_heap.hh"
#include "alloc/memo.hh"
#include "common/hash.hh"
#include "common/rng.hh"
#include "pipeline/stage.hh"

namespace gopim::alloc {
namespace {

using pipeline::Stage;
using pipeline::StageType;

/** Two-stage problem modeling the paper's Fig. 5 setup. */
AllocationProblem
figure5Problem()
{
    AllocationProblem p;
    p.stages = {{StageType::Combination, 1}, {StageType::Aggregation, 1}};
    p.scalableTimesNs = {1.0, 6.0};
    p.fixedTimesNs = {0.0, 0.0};
    p.crossbarsPerReplica = {1, 1};
    p.spareCrossbars = 3;
    p.numMicroBatches = 2;
    return p;
}

/** A 4-stage problem with diverse costs for property tests. */
AllocationProblem
mixedProblem()
{
    AllocationProblem p;
    p.stages = {{StageType::Combination, 1},
                {StageType::Aggregation, 1},
                {StageType::LossCompute, 1},
                {StageType::GradientCompute, 1}};
    p.scalableTimesNs = {10.0, 600.0, 10.0, 50.0};
    p.fixedTimesNs = {0.0, 5.0, 0.0, 1.0};
    p.crossbarsPerReplica = {2, 30, 2, 15};
    p.spareCrossbars = 200;
    p.numMicroBatches = 8;
    return p;
}

TEST(Heap, PushTopUpdate)
{
    IndexedMaxHeap heap(5);
    EXPECT_TRUE(heap.empty());
    heap.push(0, 1.0);
    heap.push(1, 5.0);
    heap.push(2, 3.0);
    EXPECT_EQ(heap.size(), 3u);
    EXPECT_EQ(heap.topId(), 1u);
    EXPECT_DOUBLE_EQ(heap.topKey(), 5.0);

    heap.updateKey(0, 10.0);
    EXPECT_EQ(heap.topId(), 0u);
    heap.updateKey(0, 0.5);
    EXPECT_EQ(heap.topId(), 1u);
    EXPECT_DOUBLE_EQ(heap.keyOf(0), 0.5);
}

TEST(Heap, RemoveMaintainsOrder)
{
    IndexedMaxHeap heap(4);
    heap.push(0, 4.0);
    heap.push(1, 3.0);
    heap.push(2, 2.0);
    heap.push(3, 1.0);
    heap.remove(0);
    EXPECT_EQ(heap.topId(), 1u);
    EXPECT_FALSE(heap.contains(0));
    heap.remove(1);
    EXPECT_EQ(heap.topId(), 2u);
    EXPECT_EQ(heap.size(), 2u);
}

TEST(Heap, StressAgainstSort)
{
    Rng rng(11);
    IndexedMaxHeap heap(100);
    std::vector<double> keys(100);
    for (size_t i = 0; i < 100; ++i) {
        keys[i] = rng.uniform();
        heap.push(i, keys[i]);
    }
    for (int round = 0; round < 200; ++round) {
        const size_t id = rng.uniformInt(uint64_t{100});
        keys[id] = rng.uniform();
        heap.updateKey(id, keys[id]);
        const size_t best =
            std::max_element(keys.begin(), keys.end()) - keys.begin();
        EXPECT_EQ(heap.topId(), best);
    }
}

TEST(Problem, StageTimeFormula)
{
    const auto p = mixedProblem();
    // fixed + scalable / replicas.
    EXPECT_DOUBLE_EQ(stageTimeNs(p, 1, 1), 605.0);
    EXPECT_DOUBLE_EQ(stageTimeNs(p, 1, 6), 105.0);
    EXPECT_DOUBLE_EQ(stageTimeNs(p, 0, 2), 5.0);
}

TEST(Problem, ValidateCatchesMismatch)
{
    auto p = mixedProblem();
    p.scalableTimesNs.pop_back();
    EXPECT_DEATH(p.validate(), "mismatch");
}

TEST(SerialAllocator, AllOnes)
{
    const auto result = SerialAllocator().allocate(mixedProblem());
    EXPECT_EQ(result.replicas,
              (std::vector<uint32_t>{1, 1, 1, 1}));
    EXPECT_EQ(result.totalCrossbars, 2u + 30 + 2 + 15);
}

TEST(FixedRatio, SplitsByStageClass)
{
    auto p = mixedProblem();
    p.spareCrossbars = 300;
    const auto result = FixedRatioAllocator(1.0, 2.0).allocate(p);
    // CO/LC share 1/6 of 300 = 50 each -> 25 extra replicas at cost 2.
    EXPECT_EQ(result.replicas[0], 26u);
    EXPECT_EQ(result.replicas[2], 26u);
    // AG gets 100 -> 3 extra at cost 30; GC gets 100 -> 6 extra at 15.
    EXPECT_EQ(result.replicas[1], 4u);
    EXPECT_EQ(result.replicas[3], 7u);
}

TEST(SpaceProportional, EqualExtraReplicasPerStage)
{
    auto p = mixedProblem();
    p.spareCrossbars = 490; // 10x the 49-crossbar footprint
    const auto result = SpaceProportionalAllocator().allocate(p);
    // Every stage's share buys the same extra replica count.
    EXPECT_EQ(result.replicas[0], result.replicas[1]);
    EXPECT_EQ(result.replicas[1], result.replicas[2]);
    EXPECT_EQ(result.replicas[2], result.replicas[3]);
    EXPECT_EQ(result.replicas[0], 11u);
}

TEST(CombinationOnly, OnlyCoStagesReplicated)
{
    const auto result =
        CombinationOnlyAllocator().allocate(mixedProblem());
    EXPECT_GT(result.replicas[0], 1u); // CO
    EXPECT_EQ(result.replicas[1], 1u); // AG
    EXPECT_EQ(result.replicas[2], 1u); // LC
    EXPECT_EQ(result.replicas[3], 1u); // GC
}

TEST(GreedyHeap, Figure5PicksAllReplicasForLongStage)
{
    // The paper's Fig. 5(c): the optimal choice gives all three spare
    // crossbars to stage 2 (makespan 16), beating ReGraphX's 1:2
    // split (makespan 18).
    const auto p = figure5Problem();
    const auto result = GreedyHeapAllocator(0, 0.0).allocate(p);
    EXPECT_EQ(result.replicas[0], 1u);
    EXPECT_EQ(result.replicas[1], 4u);
    // times {1, 1.5}: makespan = 2.5 + (2-1) * 1.5 = 4.0.
    EXPECT_DOUBLE_EQ(makespanNs(p, result.replicas), 4.0);

    const auto regraphx = FixedRatioAllocator(1.0, 2.0).allocate(p);
    EXPECT_LT(makespanNs(p, result.replicas),
              makespanNs(p, regraphx.replicas));
}

TEST(GreedyHeap, RespectsBudget)
{
    auto p = mixedProblem();
    const auto result = GreedyHeapAllocator(0, 0.0).allocate(p);
    uint64_t spent = 0;
    for (size_t i = 0; i < p.numStages(); ++i)
        spent += static_cast<uint64_t>(result.replicas[i] - 1) *
                 p.crossbarsPerReplica[i];
    EXPECT_LE(spent, p.spareCrossbars);
}

TEST(GreedyHeap, NeverWorseThanAnyBaseline)
{
    for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        Rng rng(seed);
        AllocationProblem p;
        const size_t n = 2 + rng.uniformInt(uint64_t{4});
        for (size_t i = 0; i < n; ++i) {
            p.stages.push_back(
                {static_cast<StageType>(rng.uniformInt(uint64_t{4})),
                 1});
            p.scalableTimesNs.push_back(rng.uniform(1.0, 500.0));
            p.fixedTimesNs.push_back(rng.uniform(0.0, 5.0));
            p.crossbarsPerReplica.push_back(
                1 + rng.uniformInt(uint64_t{40}));
        }
        p.spareCrossbars = 100 + rng.uniformInt(uint64_t{400});
        p.numMicroBatches =
            1 + static_cast<uint32_t>(rng.uniformInt(uint64_t{30}));

        const double greedy = makespanNs(
            p, GreedyHeapAllocator(0, 0.0).allocate(p).replicas);
        const double serial =
            makespanNs(p, SerialAllocator().allocate(p).replicas);
        const double fixed = makespanNs(
            p, FixedRatioAllocator().allocate(p).replicas);
        const double space = makespanNs(
            p, SpaceProportionalAllocator().allocate(p).replicas);
        EXPECT_LE(greedy, serial + 1e-9) << "seed " << seed;
        EXPECT_LE(greedy, fixed + 1e-9) << "seed " << seed;
        EXPECT_LE(greedy, space + 1e-9) << "seed " << seed;
    }
}

TEST(GreedyHeap, NearOptimalOnSmallInstances)
{
    for (uint64_t seed : {10u, 20u, 30u}) {
        Rng rng(seed);
        AllocationProblem p;
        for (size_t i = 0; i < 3; ++i) {
            p.stages.push_back({StageType::Combination, 1});
            p.scalableTimesNs.push_back(rng.uniform(1.0, 100.0));
            p.fixedTimesNs.push_back(0.0);
            p.crossbarsPerReplica.push_back(
                1 + rng.uniformInt(uint64_t{5}));
        }
        p.spareCrossbars = 10 + rng.uniformInt(uint64_t{10});
        p.numMicroBatches = 4;

        const double greedy = makespanNs(
            p, GreedyHeapAllocator(8, 0.0).allocate(p).replicas);
        const double optimal = makespanNs(
            p, ExhaustiveAllocator(8).allocate(p).replicas);
        EXPECT_LE(greedy, optimal * 1.25) << "seed " << seed;
        EXPECT_GE(greedy, optimal - 1e-9) << "seed " << seed;
    }
}

TEST(GreedyHeap, StopToleranceLimitsAllocation)
{
    auto p = mixedProblem();
    p.spareCrossbars = 1'000'000;
    const auto eager = GreedyHeapAllocator(0, 0.0).allocate(p);
    const auto tolerant = GreedyHeapAllocator(0, 1e-3).allocate(p);
    EXPECT_LT(tolerant.totalCrossbars, eager.totalCrossbars);
}

TEST(GreedyHeap, ReplicaCapRespected)
{
    auto p = figure5Problem();
    p.spareCrossbars = 100;
    const auto result = GreedyHeapAllocator(3, 0.0).allocate(p);
    for (auto r : result.replicas)
        EXPECT_LE(r, 3u);
}

TEST(GreedyHeap, FixedTimesNotOverReplicated)
{
    // A stage that is all fixed time gains nothing from replicas.
    AllocationProblem p;
    p.stages = {{StageType::Aggregation, 1},
                {StageType::Combination, 1}};
    p.scalableTimesNs = {0.0, 10.0};
    p.fixedTimesNs = {50.0, 0.0};
    p.crossbarsPerReplica = {1, 1};
    p.spareCrossbars = 10;
    p.numMicroBatches = 4;
    const auto result = GreedyHeapAllocator(0, 0.0).allocate(p);
    EXPECT_EQ(result.replicas[0], 1u);
    EXPECT_GT(result.replicas[1], 1u);
}

TEST(BottleneckSweep, MatchesExhaustiveOnSmallInstances)
{
    for (uint64_t seed : {40u, 50u}) {
        Rng rng(seed);
        AllocationProblem p;
        for (size_t i = 0; i < 3; ++i) {
            p.stages.push_back({StageType::Combination, 1});
            p.scalableTimesNs.push_back(rng.uniform(1.0, 50.0));
            p.fixedTimesNs.push_back(0.0);
            p.crossbarsPerReplica.push_back(
                1 + rng.uniformInt(uint64_t{3}));
        }
        p.spareCrossbars = 12;
        p.numMicroBatches = 6;

        const double sweep = makespanNs(
            p, BottleneckSweepAllocator(8).allocate(p).replicas);
        const double optimal = makespanNs(
            p, ExhaustiveAllocator(8).allocate(p).replicas);
        EXPECT_NEAR(sweep, optimal, optimal * 0.05) << "seed " << seed;
    }
}

TEST(Exhaustive, FindsKnownOptimum)
{
    const auto p = figure5Problem();
    const auto result = ExhaustiveAllocator(4).allocate(p);
    EXPECT_EQ(result.replicas[1], 4u);
    EXPECT_DOUBLE_EQ(makespanNs(p, result.replicas), 4.0);
}

/** Allocator that counts the calls it answers. */
class CountingAllocator : public Allocator
{
  public:
    explicit CountingAllocator(std::shared_ptr<const Allocator> inner)
        : inner_(std::move(inner))
    {
    }

    AllocationResult
    allocate(const AllocationProblem &problem) const override
    {
        ++calls;
        return inner_->allocate(problem);
    }
    std::string name() const override { return inner_->name(); }
    std::string memoKey() const override { return inner_->memoKey(); }

    mutable int calls = 0;

  private:
    std::shared_ptr<const Allocator> inner_;
};

/** `v` with the lowest bit of its representation flipped. */
double
flipLowBit(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    bits ^= 1;
    std::memcpy(&v, &bits, sizeof bits);
    return v;
}

TEST(AllocationMemo, HitReturnsWhatAllocateReturned)
{
    AllocationMemo memo;
    auto counting = std::make_shared<CountingAllocator>(
        std::make_shared<GreedyHeapAllocator>());
    const auto memoizedAlloc = memoized(counting, &memo);
    ASSERT_NE(memoizedAlloc, counting);
    EXPECT_EQ(memoizedAlloc->name(), "GreedyHeap");

    const auto p = mixedProblem();
    const AllocationResult fresh = GreedyHeapAllocator().allocate(p);
    for (int i = 0; i < 3; ++i) {
        const AllocationResult got = memoizedAlloc->allocate(p);
        EXPECT_EQ(got.replicas, fresh.replicas);
        EXPECT_EQ(got.totalCrossbars, fresh.totalCrossbars);
    }
    EXPECT_EQ(counting->calls, 1);
    EXPECT_EQ(memo.misses(), 1u);
    EXPECT_EQ(memo.hits(), 2u);
    EXPECT_EQ(memo.size(), 1u);
}

TEST(AllocationMemo, AllocatorsWithoutAKeyAreNotWrapped)
{
    AllocationMemo memo;
    const std::shared_ptr<const Allocator> plain[] = {
        std::make_shared<SerialAllocator>(),
        std::make_shared<FixedRatioAllocator>(),
        std::make_shared<SpaceProportionalAllocator>(),
        std::make_shared<CombinationOnlyAllocator>(),
        nullptr,
    };
    for (const auto &allocator : plain)
        EXPECT_EQ(memoized(allocator, &memo), allocator);
    EXPECT_EQ(memo.misses(), 0u);

    // A memoized allocator is never wrapped twice.
    const auto once =
        memoized(std::make_shared<GreedyHeapAllocator>(), &memo);
    EXPECT_EQ(memoized(once, &memo), once);
}

TEST(AllocationMemo, DistinctProblemsAndParametersNeverAlias)
{
    // Cache poisoning: each variant differs from the base in one bit
    // of one double, one stage type, one scalar field, or only in
    // the allocator's parameters. Every one must miss and get its
    // own fresh answer.
    const auto base = mixedProblem();
    std::vector<AllocationProblem> problems(8, base);
    problems[1].scalableTimesNs[1] =
        flipLowBit(problems[1].scalableTimesNs[1]);
    problems[2].fixedTimesNs[0] = -0.0; // 0.0 in the base
    problems[3].stages[2].type = StageType::Aggregation;
    problems[4].stages[3].layer = 2;
    problems[5].crossbarsPerReplica[1] = 31;
    problems[6].numMicroBatches = 9;
    problems[7].maxUsefulReplicas = 3;

    const std::string key = GreedyHeapAllocator().memoKey();
    for (size_t i = 0; i < problems.size(); ++i)
        for (size_t j = i + 1; j < problems.size(); ++j)
            EXPECT_NE(allocationMemoKey(key, problems[i]),
                      allocationMemoKey(key, problems[j]))
                << i << " vs " << j;
    EXPECT_NE(GreedyHeapAllocator(0, 1e-4).memoKey(),
              GreedyHeapAllocator(0, 2e-4).memoKey());
    EXPECT_NE(GreedyHeapAllocator(0).memoKey(),
              GreedyHeapAllocator(8).memoKey());
    EXPECT_EQ(GreedyHeapAllocator().memoKey(),
              GreedyHeapAllocator(0, 1e-4).memoKey());

    AllocationMemo memo;
    const std::shared_ptr<const Allocator> allocators[] = {
        std::make_shared<GreedyHeapAllocator>(),
        std::make_shared<GreedyHeapAllocator>(2),
        std::make_shared<GreedyHeapAllocator>(0, 0.5),
    };
    for (const auto &allocator : allocators) {
        const auto viaMemo = memoized(allocator, &memo);
        for (const auto &p : problems)
            EXPECT_EQ(viaMemo->allocate(p).replicas,
                      allocator->allocate(p).replicas);
    }
    EXPECT_EQ(memo.hits(), 0u);
    EXPECT_EQ(memo.misses(), 3u * problems.size());
    // The parameters do change the answer here, so aliasing would
    // have shown as a wrong replica vector above.
    EXPECT_NE(GreedyHeapAllocator(2).allocate(base).replicas,
              GreedyHeapAllocator().allocate(base).replicas);
}

TEST(AllocationMemo, ForcedFingerprintCollisionStillVerifiesTheKey)
{
    const std::string tag = GreedyHeapAllocator().memoKey();
    auto other = mixedProblem();
    other.spareCrossbars += 1;
    const std::string keyA = allocationMemoKey(tag, mixedProblem());
    const std::string keyB = allocationMemoKey(tag, other);

    AllocationMemo memo;
    const uint64_t fp = 42; // both keys forced into one bucket
    AllocationResult a, b;
    a.replicas = {1, 2, 3, 4};
    b.replicas = {4, 3, 2, 1};
    memo.insert(fp, keyA, a);
    memo.insert(fp, keyB, b);
    EXPECT_EQ(memo.size(), 2u);
    ASSERT_NE(memo.find(fp, keyA), nullptr);
    ASSERT_NE(memo.find(fp, keyB), nullptr);
    EXPECT_EQ(memo.find(fp, keyA)->replicas, a.replicas);
    EXPECT_EQ(memo.find(fp, keyB)->replicas, b.replicas);
    EXPECT_EQ(memo.find(fp, keyA + "x"), nullptr);
    EXPECT_EQ(memo.find(fnv1a64(keyA), keyA), nullptr);
}

TEST(AllocationMemo, StaysWithinItsCapacityAndCountsEvictions)
{
    AllocationMemo memo;
    const auto viaMemo =
        memoized(std::make_shared<GreedyHeapAllocator>(), &memo);
    const size_t distinct = AllocationMemo::kCapacity + 44;
    auto p = mixedProblem();
    for (size_t i = 0; i < distinct; ++i) {
        p.spareCrossbars = 100 + i;
        viaMemo->allocate(p);
        EXPECT_LE(memo.size(), AllocationMemo::kCapacity);
    }
    EXPECT_EQ(memo.size(), AllocationMemo::kCapacity);
    EXPECT_EQ(memo.evictions(), 44u);
    EXPECT_EQ(memo.misses(), distinct);

    // FIFO: the newest problem is resident, the first one evicted.
    viaMemo->allocate(p);
    EXPECT_EQ(memo.hits(), 1u);
    p.spareCrossbars = 100;
    viaMemo->allocate(p);
    EXPECT_EQ(memo.hits(), 1u);
    EXPECT_EQ(memo.evictions(), 45u);
    EXPECT_EQ(memo.size(), AllocationMemo::kCapacity);
}

} // namespace
} // namespace gopim::alloc
