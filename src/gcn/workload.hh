/**
 * @file
 * Workload descriptor: a dataset, a model, and the batching regime,
 * plus the execution policy knobs that differentiate the compared
 * accelerator systems, and the vertex profile (degrees) that drives
 * mapping-dependent costs.
 */

#ifndef GOPIM_GCN_WORKLOAD_HH
#define GOPIM_GCN_WORKLOAD_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "graph/datasets.hh"
#include "gcn/model.hh"
#include "mapping/selective.hh"
#include "mapping/vertex_map.hh"

namespace gopim::gcn {

/** One training workload (Section VII-A setup). */
struct Workload
{
    graph::DatasetSpec dataset;
    GcnModelConfig model;
    uint32_t microBatchSize = 64;
    uint32_t epochs = 1;
    uint64_t seed = 1;

    /** Micro-batches needed to cover the vertex set once. */
    uint32_t microBatchesPerEpoch() const;

    /** Paper-default workload for a dataset name. */
    static Workload paperDefault(const std::string &datasetName);
};

/**
 * Execution policy: which of the paper's techniques are active. The
 * named systems (Serial, SlimGNN-like, ...) are policy presets
 * combined with an allocator choice in core/systems.hh.
 */
struct ExecutionPolicy
{
    mapping::VertexMapStrategy mapStrategy =
        mapping::VertexMapStrategy::IndexBased;

    /** Selective vertex updating on/off. */
    bool selectiveUpdate = false;
    /** Update threshold; <= 0 selects the adaptive rule (§VI-C). */
    double theta = 0.0;
    uint32_t coldPeriod = 20;

    /** Pipelining regime. */
    bool intraBatchPipeline = false;
    bool interBatchPipeline = false;

    /**
     * ReFlip-style hybrid execution: low-degree vertices execute
     * column-major and are repeatedly reloaded, adding write traffic
     * proportional to edge count (Section VII-B's explanation).
     */
    bool hybridReload = false;

    /** SlimGNN-like input subgraph pruning: fraction of edges kept. */
    double edgeKeepFraction = 1.0;

    /** Resolved update threshold for a dataset. */
    double resolvedTheta(const graph::DatasetSpec &dataset) const;

    /**
     * Whether a run on `dataset` reads per-vertex degrees: true iff
     * selective updating keeps fewer than all of the profile's
     * vertices (mapping::keptVertexCount). Otherwise every vertex is
     * rewritten each epoch, the mapping artifacts are a closed form
     * of the vertex count, and the profile may be left empty.
     */
    bool readsDegrees(const graph::DatasetSpec &dataset) const;
};

/**
 * Degree profile of a workload's (synthetic) graph, computed once and
 * shared by the runs that read degrees (ExecutionPolicy::readsDegrees).
 */
struct VertexProfile
{
    std::vector<uint32_t> degrees;

    /** Build by sampling the dataset's degree distribution. */
    static VertexProfile build(const graph::DatasetSpec &dataset,
                               uint64_t seed);

    /** Vertices build() samples for `dataset`: max(2, |V|). */
    static uint64_t vertexCount(const graph::DatasetSpec &dataset);
};

} // namespace gopim::gcn

#endif // GOPIM_GCN_WORKLOAD_HH
