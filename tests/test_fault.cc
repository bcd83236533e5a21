/**
 * @file
 * Fault subsystem tests: deterministic stuck-cell maps and their
 * repair primitives, fault-aware group remapping, the endurance wear
 * model (including ISU's reliability dividend), the repair policies'
 * closed-form plans, and the subsystem's integration contract — a
 * zero-fault configuration is bit-identical to the fault-free build
 * on both scheduling engines and in the functional trainer.
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/harness.hh"
#include "core/report.hh"
#include "fault/model.hh"
#include "fault/repair.hh"
#include "fault/wear.hh"
#include "gcn/trainer.hh"
#include "gcn/workload.hh"
#include "graph/generators.hh"
#include "mapping/selective.hh"
#include "mapping/vertex_map.hh"
#include "tensor/init.hh"

namespace gopim {
namespace {

fault::FaultParams
stuckParams(double on, double off)
{
    fault::FaultParams params;
    params.stuckOnRate = on;
    params.stuckOffRate = off;
    return params;
}

// ------------------------- cell fault maps ---------------------- //

TEST(CellFaultMapTest, DeterministicPerSeed)
{
    const auto params = stuckParams(0.05, 0.05);
    const fault::CellFaultMap a(64, 64, params, 11);
    const fault::CellFaultMap b(64, 64, params, 11);
    const fault::CellFaultMap c(64, 64, params, 12);
    size_t same = 0, diffFromC = 0;
    for (size_t r = 0; r < 64; ++r) {
        for (size_t col = 0; col < 64; ++col) {
            same += a.at(r, col) == b.at(r, col);
            diffFromC += a.at(r, col) != c.at(r, col);
        }
    }
    EXPECT_EQ(same, 64u * 64u);
    EXPECT_GT(diffFromC, 0u);
}

TEST(CellFaultMapTest, FaultFractionTracksConfiguredRates)
{
    const fault::CellFaultMap map(128, 128, stuckParams(0.04, 0.06),
                                  17);
    EXPECT_NEAR(map.faultFraction(), 0.10, 0.02);
    EXPECT_GT(map.faultyRowCount(), 0u);
    const fault::CellFaultMap clean(128, 128, stuckParams(0.0, 0.0),
                                    17);
    EXPECT_DOUBLE_EQ(clean.faultFraction(), 0.0);
    EXPECT_EQ(clean.faultyRowCount(), 0u);
}

TEST(CellFaultMapTest, ApplyWritesStuckValues)
{
    Rng rng(3);
    const auto ideal = tensor::uniformInit(32, 32, -1.0f, 1.0f, rng);
    float maxAbs = 0.0f;
    for (size_t i = 0; i < ideal.size(); ++i)
        maxAbs = std::max(maxAbs, std::fabs(ideal.data()[i]));

    const fault::CellFaultMap map(32, 32, stuckParams(0.1, 0.1), 5);
    tensor::Matrix programmed = ideal;
    map.apply(programmed);

    using Cell = fault::CellFaultMap::Cell;
    size_t stuckOn = 0, stuckOff = 0;
    for (size_t r = 0; r < 32; ++r) {
        for (size_t c = 0; c < 32; ++c) {
            switch (map.at(r, c)) {
              case Cell::Ok:
                EXPECT_EQ(programmed.at(r, c), ideal.at(r, c));
                break;
              case Cell::StuckOff:
                EXPECT_EQ(programmed.at(r, c), 0.0f);
                ++stuckOff;
                break;
              case Cell::StuckOn:
                EXPECT_EQ(programmed.at(r, c), maxAbs);
                ++stuckOn;
                break;
            }
        }
    }
    EXPECT_GT(stuckOn, 0u);
    EXPECT_GT(stuckOff, 0u);
}

TEST(CellFaultMapTest, RepairRowsClearsWorstRowsFirst)
{
    fault::CellFaultMap map(64, 64, stuckParams(0.03, 0.03), 7);
    std::vector<size_t> before(64, 0);
    for (size_t r = 0; r < 64; ++r)
        for (size_t c = 0; c < 64; ++c)
            before[r] += map.at(r, c) != fault::CellFaultMap::Cell::Ok;

    const size_t faultyBefore = map.faultyRowCount();
    const size_t repaired = map.repairRows(0.25); // 16-row budget
    EXPECT_EQ(repaired, std::min<size_t>(16, faultyBefore));
    EXPECT_EQ(map.faultyRowCount(), faultyBefore - repaired);

    // Worst-first: every row the repair cleared had at least as many
    // faults as any row it left faulty.
    size_t minRepaired = 64 * 64, maxRemaining = 0;
    for (size_t r = 0; r < 64; ++r) {
        size_t now = 0;
        for (size_t c = 0; c < 64; ++c)
            now += map.at(r, c) != fault::CellFaultMap::Cell::Ok;
        if (before[r] > 0 && now == 0)
            minRepaired = std::min(minRepaired, before[r]);
        maxRemaining = std::max(maxRemaining, now);
    }
    EXPECT_GE(minRepaired, maxRemaining);

    // A full budget clears the map entirely.
    fault::CellFaultMap full(64, 64, stuckParams(0.03, 0.03), 7);
    full.repairRows(1.0);
    EXPECT_EQ(full.faultyRowCount(), 0u);
    EXPECT_DOUBLE_EQ(full.faultFraction(), 0.0);
}

TEST(CellFaultMapTest, EccMaskKeepsOnlyCoincidingFaults)
{
    const auto params = stuckParams(0.08, 0.08);
    const fault::CellFaultMap a(64, 64, params, 21);
    const fault::CellFaultMap b(64, 64, params, 22);

    // Masking against yourself is the identity: both copies always
    // agree, so nothing is repaired.
    const auto self = a.maskedWith(a);
    EXPECT_DOUBLE_EQ(self.faultFraction(), a.faultFraction());

    // Independent copies disagree almost everywhere: a surviving
    // fault must be present identically in both maps, so the rate
    // collapses toward rate^2.
    const auto masked = a.maskedWith(b);
    EXPECT_LT(masked.faultFraction(), a.faultFraction() * 0.5);
    for (size_t r = 0; r < 64; ++r) {
        for (size_t c = 0; c < 64; ++c) {
            if (masked.at(r, c) != fault::CellFaultMap::Cell::Ok) {
                EXPECT_EQ(masked.at(r, c), a.at(r, c));
                EXPECT_EQ(masked.at(r, c), b.at(r, c));
            }
        }
    }
}

// --------------------- fault-aware remapping -------------------- //

TEST(FaultRemapTest, ScoresAreDeterministicAndBounded)
{
    const auto a = fault::groupFaultScores(256, 0.01, 17);
    const auto b = fault::groupFaultScores(256, 0.01, 17);
    EXPECT_EQ(a, b);
    double sum = 0.0;
    for (const double s : a) {
        EXPECT_GE(s, 0.0);
        EXPECT_LT(s, 0.02);
        sum += s;
    }
    EXPECT_NEAR(sum / 256.0, 0.01, 0.002);
}

TEST(FaultRemapTest, RemapSteersLoadOntoHealthyGroupsAndLowersExposure)
{
    Rng rng(9);
    std::vector<double> load(32);
    for (auto &l : load)
        l = rng.uniform() * 10.0;
    const auto scores = fault::groupFaultScores(32, 0.01, 17);

    const auto physicalOf =
        mapping::remapGroupsByHealth(load, scores);
    ASSERT_EQ(physicalOf.size(), 32u);
    auto sorted = physicalOf;
    std::sort(sorted.begin(), sorted.end());
    for (uint32_t g = 0; g < 32; ++g)
        EXPECT_EQ(sorted[g], g); // a permutation

    // The heaviest logical group lands on the healthiest physical
    // group.
    const size_t heaviest = static_cast<size_t>(
        std::max_element(load.begin(), load.end()) - load.begin());
    const size_t healthiest = static_cast<size_t>(
        std::min_element(scores.begin(), scores.end()) -
        scores.begin());
    EXPECT_EQ(physicalOf[heaviest], healthiest);

    // Rearrangement inequality: exposure never increases.
    std::vector<double> seen(32);
    for (size_t g = 0; g < 32; ++g)
        seen[g] = scores[physicalOf[g]];
    EXPECT_LE(fault::writeExposure(load, seen),
              fault::writeExposure(load, scores));
}

// ----------------------------- wear ----------------------------- //

TEST(WearTest, FullUpdateWearRampsPastTheEnduranceRating)
{
    // Every row rewritten each epoch: at exactly the rating nothing
    // is worn; 50% past it wears half the (spread-out) population.
    const auto load = mapping::fullUpdateLoad(
        256, 64, mapping::VertexMapStrategy::IndexBased);
    const auto atRating = fault::computeWear(load, 20, 100, 100.0);
    EXPECT_DOUBLE_EQ(atRating.wornRowFraction, 0.0);
    EXPECT_DOUBLE_EQ(atRating.lifetimeFraction, 1.0);

    const auto past = fault::computeWear(load, 20, 150, 100.0);
    EXPECT_DOUBLE_EQ(past.wornRowFraction, 0.5);
    EXPECT_DOUBLE_EQ(past.meanWritesPerRowPerEpoch, 1.0);
}

TEST(WearTest, SelectiveUpdatingPaysAReliabilityDividend)
{
    // 256 vertices, skewed degrees, interleaved groups of 64.
    std::vector<uint32_t> degrees(256);
    for (size_t v = 0; v < degrees.size(); ++v)
        degrees[v] = static_cast<uint32_t>(256 - v);

    mapping::SelectiveUpdateParams params;
    params.theta = 0.5;
    params.coldPeriod = 20;
    const auto strategy = mapping::VertexMapStrategy::Interleaved;
    const auto isu = fault::computeWear(
        mapping::selectiveLoad(degrees, 64, strategy, params),
        params.coldPeriod, 150, 100.0);
    const auto full = fault::computeWear(
        mapping::fullUpdateLoad(degrees.size(), 64, strategy),
        params.coldPeriod, 150, 100.0);

    // Mean wear drops to theta + (1 - theta) / coldPeriod.
    EXPECT_NEAR(isu.meanWritesPerRowPerEpoch, 0.5 + 0.5 / 20.0, 1e-9);
    EXPECT_DOUBLE_EQ(full.meanWritesPerRowPerEpoch, 1.0);
    EXPECT_LT(isu.wornRowFraction, full.wornRowFraction);
    EXPECT_LE(isu.peakGroupWritesPerEpoch,
              full.peakGroupWritesPerEpoch);
}

/**
 * computeWear as it was before it took group writes: per-vertex
 * assignment and importance vectors, kept as the reference.
 */
fault::WearState
perVertexWear(const mapping::VertexAssignment &assignment,
              const std::vector<bool> &important,
              const mapping::SelectiveUpdateParams &params,
              uint32_t epochs, double writeEndurance)
{
    fault::WearState wear;
    wear.groupWritesPerEpoch =
        mapping::expectedEpochWrites(assignment, important, params);
    double total = 0.0;
    for (const double writes : wear.groupWritesPerEpoch) {
        total += writes;
        wear.peakGroupWritesPerEpoch =
            std::max(wear.peakGroupWritesPerEpoch, writes);
    }
    const auto numRows = static_cast<double>(important.size());
    wear.meanWritesPerRowPerEpoch = total / numRows;
    size_t hotRows = 0;
    for (const bool hot : important)
        hotRows += hot;
    const double hotShare = static_cast<double>(hotRows) / numRows;
    const double coldRate =
        1.0 / static_cast<double>(std::max(1u, params.coldPeriod));
    auto wornShare = [&](double writesPerEpoch) {
        return std::clamp(writesPerEpoch * static_cast<double>(epochs) /
                                  writeEndurance -
                              1.0,
                          0.0, 1.0);
    };
    wear.lifetimeFraction = static_cast<double>(epochs) /
                            writeEndurance *
                            (hotRows > 0 ? 1.0 : coldRate);
    wear.wornRowFraction = hotShare * wornShare(1.0) +
                           (1.0 - hotShare) * wornShare(coldRate);
    return wear;
}

TEST(WearTest, GroupWritesWearEqualsPerVertexWear)
{
    Rng rng(23);
    for (const uint32_t n : {2u, 65u, 300u, 4096u}) {
        std::vector<uint32_t> degrees(n);
        for (auto &d : degrees)
            d = static_cast<uint32_t>(rng.uniformInt(40));
        for (const auto strategy :
             {mapping::VertexMapStrategy::IndexBased,
              mapping::VertexMapStrategy::Interleaved}) {
            for (const double theta : {0.0, 0.3, 0.5, 0.8, 1.0}) {
                for (const uint32_t coldPeriod : {1u, 7u, 20u}) {
                    mapping::SelectiveUpdateParams params;
                    params.theta = theta;
                    params.coldPeriod = coldPeriod;
                    const auto reference = perVertexWear(
                        mapping::mapVertices(degrees, 64, strategy),
                        mapping::selectImportant(degrees, theta), params,
                        120, 100.0);
                    const auto wear = fault::computeWear(
                        mapping::selectiveLoad(degrees, 64, strategy,
                                               params),
                        coldPeriod, 120, 100.0);
                    EXPECT_EQ(wear.groupWritesPerEpoch,
                              reference.groupWritesPerEpoch);
                    EXPECT_EQ(wear.meanWritesPerRowPerEpoch,
                              reference.meanWritesPerRowPerEpoch);
                    EXPECT_EQ(wear.peakGroupWritesPerEpoch,
                              reference.peakGroupWritesPerEpoch);
                    EXPECT_EQ(wear.lifetimeFraction,
                              reference.lifetimeFraction);
                    EXPECT_EQ(wear.wornRowFraction,
                              reference.wornRowFraction);
                }
            }
        }
    }
}

// ------------------------- repair policies ---------------------- //

fault::RepairContext
sampleContext()
{
    fault::RepairContext ctx;
    ctx.params = stuckParams(0.005, 0.005);
    ctx.params.driftPerEpoch = 0.01;
    ctx.spareRowFraction = 0.05;
    ctx.refreshPeriodMb = 128;
    ctx.wornRowFraction = 0.002;
    ctx.writeExposure = 0.012;
    ctx.totalMicroBatches = 1024;
    return ctx;
}

TEST(RepairPolicyTest, PlansAreDeterministic)
{
    const auto ctx = sampleContext();
    for (const fault::RepairKind kind : fault::allRepairKinds()) {
        const auto &policy = fault::repairPolicyFor(kind);
        EXPECT_EQ(policy.name(), toString(kind));
        const auto a = policy.plan(ctx);
        const auto b = policy.plan(ctx);
        EXPECT_EQ(a.policy, b.policy);
        EXPECT_EQ(a.rawCellFaultRate, b.rawCellFaultRate);
        EXPECT_EQ(a.residualCellFaultRate, b.residualCellFaultRate);
        EXPECT_EQ(a.residualDriftPerEpoch, b.residualDriftPerEpoch);
        EXPECT_EQ(a.writeAmplification, b.writeAmplification);
        EXPECT_EQ(a.crossbarOverheadFactor, b.crossbarOverheadFactor);
        EXPECT_EQ(a.refreshEveryMicroBatches,
                  b.refreshEveryMicroBatches);
        EXPECT_EQ(a.refreshStallNs, b.refreshStallNs);
        EXPECT_EQ(a.rowWritesPerRefresh, b.rowWritesPerRefresh);
        EXPECT_EQ(a.remapStallNs, b.remapStallNs);
        // Stuck + worn cells: 0.005 + 0.005 + 0.002.
        EXPECT_DOUBLE_EQ(a.rawCellFaultRate, 0.012);
    }
}

TEST(RepairPolicyTest, NoneLeavesEverythingUnrepaired)
{
    const auto plan =
        fault::repairPolicyFor(fault::RepairKind::None)
            .plan(sampleContext());
    EXPECT_DOUBLE_EQ(plan.residualCellFaultRate,
                     plan.rawCellFaultRate);
    EXPECT_DOUBLE_EQ(plan.residualDriftPerEpoch, 0.01);
    EXPECT_GT(plan.writeAmplification, 1.0); // write-verify retries
    EXPECT_DOUBLE_EQ(plan.crossbarOverheadFactor, 1.0);
    EXPECT_EQ(plan.refreshEveryMicroBatches, 0u);
    EXPECT_DOUBLE_EQ(plan.remapStallNs, 0.0);
}

TEST(RepairPolicyTest, SpareRowsTradeCapacityForResidualRate)
{
    const auto plan =
        fault::repairPolicyFor(fault::RepairKind::SpareRows)
            .plan(sampleContext());
    EXPECT_LT(plan.residualCellFaultRate, plan.rawCellFaultRate);
    EXPECT_GT(plan.crossbarOverheadFactor, 1.0);
    EXPECT_GT(plan.remapStallNs, 0.0); // one-time re-programming
    // Spares cannot fix retention drift.
    EXPECT_DOUBLE_EQ(plan.residualDriftPerEpoch, 0.01);
}

TEST(RepairPolicyTest, EccSquaresTheResidualRate)
{
    const auto plan =
        fault::repairPolicyFor(fault::RepairKind::EccDuplicate)
            .plan(sampleContext());
    EXPECT_DOUBLE_EQ(plan.residualCellFaultRate,
                     plan.rawCellFaultRate * plan.rawCellFaultRate);
    EXPECT_DOUBLE_EQ(plan.writeAmplification, 2.0);
    EXPECT_DOUBLE_EQ(plan.crossbarOverheadFactor, 2.0);
}

TEST(RepairPolicyTest, RefreshFixesDriftAtAPipelineCost)
{
    const auto ctx = sampleContext();
    const auto plan =
        fault::repairPolicyFor(fault::RepairKind::Refresh).plan(ctx);
    EXPECT_DOUBLE_EQ(plan.residualDriftPerEpoch, 0.0);
    EXPECT_DOUBLE_EQ(plan.residualCellFaultRate,
                     plan.rawCellFaultRate); // stuck cells remain
    EXPECT_EQ(plan.refreshEveryMicroBatches, 128u);
    EXPECT_DOUBLE_EQ(plan.refreshStallNs,
                     static_cast<double>(ctx.rows) *
                         ctx.writeLatencyNs);
    EXPECT_EQ(plan.rowWritesPerRefresh, ctx.rows);
}

TEST(RepairPolicyTest, AccuracyEffectsMatchEachPolicy)
{
    fault::FaultConfig config;
    config.params = stuckParams(0.01, 0.02);
    config.params.driftPerEpoch = 0.005;
    config.spareRowFraction = 0.08;
    config.refreshPeriodEpochs = 4;

    config.repair = fault::RepairKind::None;
    auto fx = fault::accuracyEffectsFor(config);
    EXPECT_DOUBLE_EQ(fx.stuckOnRate, 0.01);
    EXPECT_DOUBLE_EQ(fx.stuckOffRate, 0.02);
    EXPECT_FALSE(fx.eccDuplicate);
    EXPECT_EQ(fx.refreshPeriodEpochs, 0u);
    EXPECT_DOUBLE_EQ(fx.spareRowFraction, 0.0);

    config.repair = fault::RepairKind::SpareRows;
    fx = fault::accuracyEffectsFor(config);
    EXPECT_DOUBLE_EQ(fx.spareRowFraction, 0.08);

    config.repair = fault::RepairKind::EccDuplicate;
    fx = fault::accuracyEffectsFor(config);
    EXPECT_TRUE(fx.eccDuplicate);

    config.repair = fault::RepairKind::Refresh;
    fx = fault::accuracyEffectsFor(config);
    EXPECT_EQ(fx.refreshPeriodEpochs, 4u);
    EXPECT_DOUBLE_EQ(fx.driftPerEpoch, 0.005);
}

TEST(RepairPolicyTest, RepairKindNamesRoundTrip)
{
    for (const fault::RepairKind kind : fault::allRepairKinds()) {
        fault::RepairKind parsed;
        ASSERT_TRUE(
            fault::tryRepairKindFromString(toString(kind), &parsed));
        EXPECT_EQ(parsed, kind);
    }
    fault::RepairKind kind;
    EXPECT_TRUE(fault::tryRepairKindFromString("spare", &kind));
    EXPECT_EQ(kind, fault::RepairKind::SpareRows);
    EXPECT_TRUE(fault::tryRepairKindFromString("ecc", &kind));
    EXPECT_EQ(kind, fault::RepairKind::EccDuplicate);
    EXPECT_FALSE(fault::tryRepairKindFromString("bogus", &kind));
}

// ----------------------- integration contract ------------------- //

TEST(FaultIntegrationTest, ZeroFaultConfigIsBitIdenticalBothEngines)
{
    // An explicitly-zero fault configuration must take the exact
    // pre-fault code path: same makespan bits, same energy bits, on
    // both scheduling engines, for GoPIM and a baseline.
    const auto workload = gcn::Workload::paperDefault("Cora");
    for (const auto engine : {sim::EngineKind::ClosedForm,
                              sim::EngineKind::EventDriven}) {
        sim::SimContext ctx;
        ctx.engine = engine;
        core::ComparisonHarness plain(
            reram::AcceleratorConfig::paperDefault(), ctx);
        core::ComparisonHarness zeroed(
            reram::AcceleratorConfig::paperDefault(), ctx);
        zeroed.setFaultConfig(fault::FaultConfig{});

        for (const auto kind :
             {core::SystemKind::Serial, core::SystemKind::GoPim}) {
            const auto a = plain.runOne(kind, workload);
            const auto b = zeroed.runOne(kind, workload);
            EXPECT_EQ(a.makespanNs, b.makespanNs);
            EXPECT_EQ(a.energyPj, b.energyPj);
            EXPECT_EQ(a.totalCrossbars, b.totalCrossbars);
            EXPECT_EQ(a.stageTimesNs, b.stageTimesNs);
            EXPECT_EQ(b.repairPolicy, "none");
            EXPECT_DOUBLE_EQ(b.rawFaultRate, 0.0);
            EXPECT_DOUBLE_EQ(b.writeAmplification, 1.0);
        }
    }
}

TEST(FaultIntegrationTest, FaultsBendTimingAndSurfaceInTheResult)
{
    const auto workload = gcn::Workload::paperDefault("Cora");
    core::ComparisonHarness healthy;
    core::ComparisonHarness faulty;
    fault::FaultConfig config;
    config.params.stuckOnRate = 0.01;
    faulty.setFaultConfig(config);

    const auto a = healthy.runOne(core::SystemKind::GoPim, workload);
    const auto b = faulty.runOne(core::SystemKind::GoPim, workload);
    EXPECT_GT(b.rawFaultRate, 0.0);
    EXPECT_GT(b.residualFaultRate, 0.0);
    EXPECT_GT(b.writeAmplification, 1.0);
    EXPECT_GT(b.makespanNs, a.makespanNs);

    // The result JSON carries the fault block for downstream tooling.
    const json::Value json = core::runResultToJson(b);
    const json::Value *block = json.find("fault");
    ASSERT_TRUE(block != nullptr);
    EXPECT_EQ(block->find("repair_policy")->asString(), "none");
    EXPECT_GT(block->find("raw_fault_rate")->asDouble(), 0.0);
}

TEST(FaultIntegrationTest, RepairPoliciesShiftTheMakespanTradeoff)
{
    const auto workload = gcn::Workload::paperDefault("Cora");
    fault::FaultConfig config;
    config.params.stuckOnRate = 0.01;

    std::vector<double> makespans;
    for (const fault::RepairKind kind : fault::allRepairKinds()) {
        config.repair = kind;
        core::ComparisonHarness harness;
        harness.setFaultConfig(config);
        const auto run =
            harness.runOne(core::SystemKind::GoPim, workload);
        EXPECT_EQ(run.repairPolicy, toString(kind));
        makespans.push_back(run.makespanNs);

        // Deterministic: the same configuration reproduces the same
        // bits on a fresh harness.
        core::ComparisonHarness again;
        again.setFaultConfig(config);
        EXPECT_EQ(
            again.runOne(core::SystemKind::GoPim, workload).makespanNs,
            run.makespanNs);
    }
    // ECC's doubled writes cost more than unrepaired retries here.
    EXPECT_GT(makespans[2], makespans[0]);
}

TEST(FaultIntegrationTest, TrainerZeroFaultRunsAreBitIdentical)
{
    Rng rng(3);
    const auto data =
        graph::degreeCorrectedPartition(300, 3, 10.0, 2.1, 0.2, rng);
    gcn::TrainerConfig base;
    base.epochs = 8;
    base.featureDim = 8;
    base.hiddenChannels = 16;

    gcn::TrainerConfig zeroed = base;
    zeroed.fault = fault::FaultConfig{}; // explicit zero

    const auto a = gcn::FunctionalTrainer(data, base).train({});
    const auto b = gcn::FunctionalTrainer(data, zeroed).train({});
    EXPECT_EQ(a.lossHistory, b.lossHistory);
    EXPECT_EQ(a.bestTestAccuracy, b.bestTestAccuracy);
    EXPECT_EQ(a.finalTestAccuracy, b.finalTestAccuracy);
    EXPECT_EQ(a.finalTrainLoss, b.finalTrainLoss);
}

TEST(FaultIntegrationTest, TrainerFaultInjectionIsDeterministic)
{
    Rng rng(3);
    const auto data =
        graph::degreeCorrectedPartition(300, 3, 10.0, 2.1, 0.2, rng);
    gcn::TrainerConfig config;
    config.epochs = 8;
    config.featureDim = 8;
    config.hiddenChannels = 16;
    config.fault.params.stuckOnRate = 0.02;
    config.fault.params.stuckOffRate = 0.02;

    const auto a = gcn::FunctionalTrainer(data, config).train({});
    const auto b = gcn::FunctionalTrainer(data, config).train({});
    EXPECT_EQ(a.lossHistory, b.lossHistory);
    EXPECT_EQ(a.bestTestAccuracy, b.bestTestAccuracy);

    // And faults actually reach the forward pass: the loss history
    // diverges from a healthy run.
    gcn::TrainerConfig healthy = config;
    healthy.fault = fault::FaultConfig{};
    const auto clean =
        gcn::FunctionalTrainer(data, healthy).train({});
    EXPECT_NE(a.lossHistory, clean.lossHistory);
}

} // namespace
} // namespace gopim
