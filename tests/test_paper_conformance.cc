/**
 * @file
 * Paper-conformance sweeps: parameterized checks across ALL seven
 * Table III datasets that the catalog, the Table IV models, the
 * timing model, and the end-to-end systems satisfy the invariants
 * the paper's evaluation depends on.
 */

#include <gtest/gtest.h>

#include "core/accelerator.hh"
#include "core/harness.hh"
#include "core/systems.hh"
#include "gcn/time_model.hh"
#include "gcn/workload.hh"
#include "graph/datasets.hh"
#include "mapping/tiling.hh"

namespace gopim {
namespace {

class DatasetConformance
    : public ::testing::TestWithParam<const char *>
{
  protected:
    graph::DatasetSpec
    spec() const
    {
        return graph::DatasetCatalog::byName(GetParam());
    }
};

TEST_P(DatasetConformance, CatalogStatisticsAreSelfConsistent)
{
    const auto s = spec();
    EXPECT_GT(s.numVertices, 0u);
    EXPECT_GT(s.numEdges, 0u);
    EXPECT_GT(s.featureDim, 0u);
    // Table III's published average degrees do NOT always equal
    // 2E/V from its own vertex/edge counts (OGB's edge-counting
    // conventions vary per dataset: Cora's count is directed,
    // collab's includes multi-edges). The catalog reproduces the
    // published numbers verbatim; assert they are at least in the
    // same regime as the counts imply.
    const double directed = static_cast<double>(s.numEdges) /
                            static_cast<double>(s.numVertices);
    EXPECT_GE(s.avgDegree, directed * 0.5) << "degree vs counts";
    EXPECT_LE(s.avgDegree, directed * 2.0 * 1.5)
        << "degree vs counts";
    EXPECT_GT(s.stats().sparsity(), 0.0);
    EXPECT_LT(s.stats().sparsity(), 1.0);
}

TEST_P(DatasetConformance, ModelMatchesTableFour)
{
    const auto model = gcn::paperModelFor(GetParam());
    EXPECT_GE(model.numLayers, 2u);
    EXPECT_LE(model.numLayers, 3u);
    EXPECT_EQ(model.hiddenChannels, 256u);
    EXPECT_GT(model.learningRate, 0.0);
    EXPECT_LE(model.dropout, 0.5);
    // Layer dims chain correctly.
    for (uint32_t l = 1; l < model.numLayers; ++l)
        EXPECT_EQ(model.layerDims(l).second,
                  model.layerDims(l + 1).first);
}

TEST_P(DatasetConformance, SingleReplicasFitTheChip)
{
    const auto workload = gcn::Workload::paperDefault(GetParam());
    const auto hw = reram::AcceleratorConfig::paperDefault();
    uint64_t mandatory = 0;
    for (uint32_t l = 1; l <= workload.model.numLayers; ++l) {
        const auto [fin, fout] = workload.model.layerDims(l);
        mandatory +=
            mapping::crossbarsPerReplica(fin, fout, hw) * 2; // CO+LC
        mandatory += mapping::crossbarsPerReplica(
                         workload.dataset.numVertices, fout, hw) *
                     2; // AG+GC
    }
    EXPECT_LE(mandatory, hw.totalCrossbars())
        << "the 16 GB chip must hold one replica of every stage";
}

TEST_P(DatasetConformance, StageTimesArePositiveAndAgDominates)
{
    const auto workload = gcn::Workload::paperDefault(GetParam());
    const gcn::StageTimeModel model(
        reram::AcceleratorConfig::paperDefault());
    gcn::ExecutionPolicy policy;
    const auto artifacts = gcn::MappingArtifacts::fullUpdateApprox(
        workload.dataset.numVertices, 64);
    const auto costs = model.allCosts(workload, policy, artifacts);
    ASSERT_EQ(costs.size(), workload.model.numStages());

    double coMax = 0.0, agMin = 1e300;
    const auto stages =
        pipeline::buildTrainingStages(workload.model.numLayers);
    for (size_t i = 0; i < costs.size(); ++i) {
        EXPECT_GT(costs[i].totalNs(), 0.0) << stages[i].label();
        if (stages[i].type == pipeline::StageType::Combination)
            coMax = std::max(coMax, costs[i].totalNs());
        if (stages[i].type == pipeline::StageType::Aggregation)
            agMin = std::min(agMin, costs[i].totalNs());
    }
    // Section III-A: Aggregation outweighs Combination everywhere.
    EXPECT_GT(agMin, coMax);
}

TEST_P(DatasetConformance, GoPimWinsEndToEnd)
{
    core::ComparisonHarness harness;
    const auto workload = gcn::Workload::paperDefault(GetParam());
    const auto profile =
        gcn::VertexProfile::build(workload.dataset, workload.seed);

    core::Accelerator serial(harness.hardware(),
                             core::makeSystem(core::SystemKind::Serial));
    core::Accelerator gopim(harness.hardware(),
                            core::makeSystem(core::SystemKind::GoPim));
    const auto s = serial.run(workload, profile);
    const auto g = gopim.run(workload, profile);
    EXPECT_GT(g.speedupOver(s), 1.0);
    EXPECT_GT(g.energySavingOver(s), 1.0);
    EXPECT_LT(g.avgIdleFraction, s.avgIdleFraction);
}

INSTANTIATE_TEST_SUITE_P(AllTableThreeDatasets, DatasetConformance,
                         ::testing::Values("ddi", "collab", "ppa",
                                           "proteins", "arxiv",
                                           "products", "Cora"));

// ------------------- failure injection (fatal paths) ------------ //

TEST(FailureInjection, UnknownDatasetIsFatal)
{
    EXPECT_DEATH(graph::DatasetCatalog::byName("imaginary"),
                 "unknown dataset");
    EXPECT_DEATH(gcn::paperModelFor("imaginary"), "no paper model");
}

TEST(FailureInjection, OversizedWorkloadIsFatal)
{
    // Shrink the chip until products' single replicas no longer fit.
    auto hw = reram::AcceleratorConfig::paperDefault();
    hw.chip.tilesPerChip = 16; // 4096 crossbars only
    // GoPIM-Vanilla allocates like GoPIM but updates every vertex,
    // so it plans products without products' 2.4M-vertex profile.
    const auto workload = gcn::Workload::paperDefault("products");
    core::Accelerator accel(
        hw, core::makeSystem(core::SystemKind::GoPimVanilla));
    EXPECT_DEATH(accel.run(workload, gcn::VertexProfile{}),
                 "does not fit");
}

TEST(FailureInjection, BadHardwareConfigIsFatal)
{
    auto hw = reram::AcceleratorConfig::paperDefault();
    hw.crossbar.readLatencyNs = -1.0;
    EXPECT_DEATH(hw.validate(), "latencies");

    auto hw2 = reram::AcceleratorConfig::paperDefault();
    hw2.pe.crossbarsPerPe = 0;
    EXPECT_DEATH(hw2.validate(), "hierarchy");
}

TEST(FailureInjection, EmptyScheduleIsFatal)
{
    EXPECT_DEATH(pipeline::schedulePipelined({}, 4), "no stages");
    EXPECT_DEATH(pipeline::schedulePipelined({1.0}, 0), "micro-batch");
}

} // namespace
} // namespace gopim
