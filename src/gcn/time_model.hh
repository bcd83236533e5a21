/**
 * @file
 * Analytic per-stage cost model for GCN training on the ReRAM
 * substrate. For each of the 4L stages it produces the scalable
 * (replica-divisible) compute time, the fixed (write-bound) time,
 * the crossbar footprint of one replica, and the energy event counts.
 * Calibration notes live in DESIGN.md §2.
 */

#ifndef GOPIM_GCN_TIME_MODEL_HH
#define GOPIM_GCN_TIME_MODEL_HH

#include <cstdint>
#include <vector>

#include "gcn/workload.hh"
#include "mapping/selective.hh"
#include "mapping/vertex_map.hh"
#include "noc/router.hh"
#include "pipeline/stage.hh"
#include "reram/config.hh"
#include "reram/latency.hh"

namespace gopim::gcn {

/** Per-stage, per-micro-batch cost breakdown. */
struct StageCost
{
    /** Compute time divisible by the replica count (ns). */
    double scalableNs = 0.0;
    /** Write/update time, identical in every replica (ns). */
    double fixedNs = 0.0;
    /** Crossbars one replica of this stage occupies. */
    uint64_t crossbarsPerReplica = 0;
    /** Crossbar read events (for dynamic energy). */
    uint64_t activationsPerMb = 0;
    /** Crossbar row-write events (for dynamic energy + endurance). */
    uint64_t rowWritesPerMb = 0;
    /** Bytes moved through buffers (for buffer energy). */
    uint64_t bufferBytesPerMb = 0;

    /** Single-replica stage time (ns/micro-batch). */
    double totalNs() const { return scalableNs + fixedNs; }
};

/** Calibration constants of the cost model. */
struct TimeModelParams
{
    /** Weight-manager SRAM throughput for GC (MACs per ns). */
    double sramMacsPerNs = 1024.0;
    /** Fraction of vertices ReFlip executes column-major (reloaded). */
    double reflipLowDegreeShare = 1.0;
    /**
     * Model the inter-tile partial-sum reduction over the NoC
     * (Section IV-A's adders + pipeline bus). Off by default: a
     * second-order effect (~5%) kept opt-in so the headline
     * calibration stays comparable; bench/ablation_noc quantifies it.
     */
    bool modelNoc = false;
    noc::NocParams nocParams{};
};

/**
 * Mapping-dependent artifacts shared by all Aggregation stages of a
 * workload: the per-group update load and the per-epoch update bound.
 */
struct MappingArtifacts
{
    /** Per-group expected writes and the hot-vertex count. */
    mapping::UpdateLoad load;
    /** Max per-group expected row writes per epoch (update bound). */
    double epochUpdateSlots = 0.0;
    /** Expected fraction of vertices written per epoch. */
    double updateFraction = 1.0;

    /**
     * Map and select the dataset's vertices under the policy. Only
     * a policy that readsDegrees needs `profile`, and then it must be
     * the dataset's own (VertexProfile::vertexCount degrees); for
     * the others the load is mapping::fullUpdateLoad and the profile
     * may be empty.
     */
    static MappingArtifacts build(const VertexProfile &profile,
                                  const ExecutionPolicy &policy,
                                  const graph::DatasetSpec &dataset,
                                  uint32_t rowsPerGroup);

    /**
     * Artifacts of index-based mapping without selective updating:
     * the closed form build() takes for full-update systems, for
     * callers that have only a vertex count.
     */
    static MappingArtifacts fullUpdateApprox(uint64_t numVertices,
                                             uint32_t rowsPerGroup);
};

/** The analytic stage cost model. */
class StageTimeModel
{
  public:
    StageTimeModel(const reram::AcceleratorConfig &cfg,
                   TimeModelParams params = {});

    /** Cost of one stage of the workload under the policy. */
    StageCost cost(const Workload &workload,
                   const ExecutionPolicy &policy,
                   const MappingArtifacts &artifacts,
                   const pipeline::Stage &stage) const;

    /** Costs for all 4L stages, in pipeline order. */
    std::vector<StageCost> allCosts(const Workload &workload,
                                    const ExecutionPolicy &policy,
                                    const MappingArtifacts &artifacts)
        const;

    const reram::AcceleratorConfig &config() const
    {
        return latency_.config();
    }

  private:
    StageCost combinationCost(const Workload &w, uint32_t layer) const;
    StageCost aggregationCost(const Workload &w,
                              const ExecutionPolicy &policy,
                              const MappingArtifacts &artifacts,
                              uint32_t layer) const;
    StageCost lossCost(const Workload &w, uint32_t layer) const;
    StageCost gradientCost(const Workload &w,
                           const MappingArtifacts &artifacts,
                           uint32_t layer) const;

    /** Per-input inter-tile reduction latency for a replica (ns). */
    double nocReductionNs(uint64_t crossbarsPerReplica,
                          uint32_t outputWidth) const;

    reram::LatencyModel latency_;
    TimeModelParams params_;
};

} // namespace gopim::gcn

#endif // GOPIM_GCN_TIME_MODEL_HH
