/**
 * @file
 * Selective vertex updating (Section VI of the paper).
 *
 * Vertices are ranked by degree; the top theta fraction ("important")
 * are rewritten every epoch, the rest every `coldPeriod` (20) epochs.
 * Combined with a vertex mapping, this yields per-crossbar write loads:
 * serial within a crossbar row group, parallel across groups, so the
 * update time of an epoch is bounded by the most-loaded group. OSU
 * (index mapping + selection) fails to reduce that bound (Fig. 7);
 * ISU (interleaved mapping + selection) reduces it proportionally.
 */

#ifndef GOPIM_MAPPING_SELECTIVE_HH
#define GOPIM_MAPPING_SELECTIVE_HH

#include <cstdint>
#include <vector>

#include "mapping/vertex_map.hh"

namespace gopim::mapping {

/** Parameters of the selective-update policy. */
struct SelectiveUpdateParams
{
    /** Fraction of vertices updated every epoch (paper's theta). */
    double theta = 1.0;
    /** Cold vertices are refreshed once per this many epochs. */
    uint32_t coldPeriod = 20;
};

/**
 * Paper's adaptive threshold rule (Section VI-C): graphs with average
 * degree <= 8 are sparse and use theta = 0.8; denser graphs use 0.5.
 */
double adaptiveTheta(double avgDegree);

/**
 * Vertices selective updating rewrites every epoch: n * theta rounded
 * to the nearest integer. The one keep rule — selectImportant and
 * gcn::ExecutionPolicy::readsDegrees both apply it.
 */
size_t keptVertexCount(size_t n, double theta);

/**
 * Mark the top keptVertexCount(n, theta) vertices by degree as
 * important, taken from rankByDegree (ties break toward the lower
 * vertex id). When that count covers every vertex (theta = 1, the
 * non-selective systems) all are marked without ranking.
 */
std::vector<bool> selectImportant(const std::vector<uint32_t> &degrees,
                                  double theta);

/**
 * Row writes per group for one *hot* epoch, where only important
 * vertices are written. This is the integer-cycle view used by the
 * Fig. 7 example.
 */
std::vector<uint64_t> hotEpochWrites(const VertexAssignment &assignment,
                                     const std::vector<bool> &important);

/**
 * Expected row writes per group per epoch, amortizing cold refreshes
 * over the cold period: important -> 1, cold -> 1/coldPeriod.
 */
std::vector<double> expectedEpochWrites(
    const VertexAssignment &assignment,
    const std::vector<bool> &important,
    const SelectiveUpdateParams &params);

/**
 * Update-time bound (in row-write slots) for one epoch: the maximum
 * per-group expected write count (serial within a group, parallel
 * across groups).
 */
double epochUpdateSlots(const VertexAssignment &assignment,
                        const std::vector<bool> &important,
                        const SelectiveUpdateParams &params);

/**
 * What the update bound and the wear model read of a mapped, selected
 * vertex set: per-group expected writes and the hot-vertex count.
 */
struct UpdateLoad
{
    /** expectedEpochWrites of the mapping and selection. */
    std::vector<double> groupWrites;
    /** Vertices rewritten every epoch (the rest once per cold period). */
    uint64_t hotVertices = 0;
    uint64_t numVertices = 0;
};

/**
 * The load of mapping `degrees.size()` vertices with `strategy` and
 * keeping the top params.theta: exactly expectedEpochWrites(
 * mapVertices(...), selectImportant(...), params), from one
 * rankByDegree that feeds both the interleaved deal and the
 * importance cut. Writes accumulate in vertex-id order.
 */
UpdateLoad selectiveLoad(const std::vector<uint32_t> &degrees,
                         uint32_t rowsPerGroup, VertexMapStrategy strategy,
                         const SelectiveUpdateParams &params);

/**
 * selectiveLoad when every vertex is kept, in closed form: each group
 * writes its size, whatever the degrees. Index-based groups hold
 * rowsPerGroup vertices and the last one the remainder; the
 * interleaved deal gives the first n mod G of its G groups
 * ceil(n / G) vertices and the rest floor(n / G).
 */
UpdateLoad fullUpdateLoad(uint64_t numVertices, uint32_t rowsPerGroup,
                          VertexMapStrategy strategy);

/** Sum of degrees of dropped (non-important) vertices, for reporting. */
uint64_t droppedDegreeMass(const std::vector<uint32_t> &degrees,
                           const std::vector<bool> &important);

} // namespace gopim::mapping

#endif // GOPIM_MAPPING_SELECTIVE_HH
