#include "mapping/selective.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/math_utils.hh"

namespace gopim::mapping {

double
adaptiveTheta(double avgDegree)
{
    return avgDegree <= 8.0 ? 0.8 : 0.5;
}

size_t
keptVertexCount(size_t n, double theta)
{
    GOPIM_ASSERT(theta >= 0.0 && theta <= 1.0,
                 "theta must be in [0, 1]");
    return static_cast<size_t>(static_cast<double>(n) * theta + 0.5);
}

std::vector<bool>
selectImportant(const std::vector<uint32_t> &degrees, double theta)
{
    const size_t n = degrees.size();
    const size_t keep = keptVertexCount(n, theta);

    // Non-selective systems (theta = 1) keep everything: no ranking.
    if (keep >= n)
        return std::vector<bool>(n, true);

    const std::vector<uint32_t> order = rankByDegree(degrees);
    std::vector<bool> important(n, false);
    for (size_t i = 0; i < keep; ++i)
        important[order[i]] = true;
    return important;
}

std::vector<uint64_t>
hotEpochWrites(const VertexAssignment &assignment,
               const std::vector<bool> &important)
{
    GOPIM_ASSERT(assignment.groupOf.size() == important.size(),
                 "assignment/importance size mismatch");
    std::vector<uint64_t> writes(assignment.numGroups, 0);
    for (size_t v = 0; v < important.size(); ++v)
        if (important[v])
            ++writes[assignment.groupOf[v]];
    return writes;
}

std::vector<double>
expectedEpochWrites(const VertexAssignment &assignment,
                    const std::vector<bool> &important,
                    const SelectiveUpdateParams &params)
{
    GOPIM_ASSERT(assignment.groupOf.size() == important.size(),
                 "assignment/importance size mismatch");
    GOPIM_ASSERT(params.coldPeriod >= 1, "cold period must be >= 1");
    const double coldRate = 1.0 / params.coldPeriod;
    std::vector<double> writes(assignment.numGroups, 0.0);
    for (size_t v = 0; v < important.size(); ++v)
        writes[assignment.groupOf[v]] += important[v] ? 1.0 : coldRate;
    return writes;
}

double
epochUpdateSlots(const VertexAssignment &assignment,
                 const std::vector<bool> &important,
                 const SelectiveUpdateParams &params)
{
    const auto writes =
        expectedEpochWrites(assignment, important, params);
    return *std::max_element(writes.begin(), writes.end());
}

UpdateLoad
selectiveLoad(const std::vector<uint32_t> &degrees, uint32_t rowsPerGroup,
              VertexMapStrategy strategy,
              const SelectiveUpdateParams &params)
{
    GOPIM_ASSERT(!degrees.empty(), "cannot map zero vertices");
    GOPIM_ASSERT(rowsPerGroup > 0, "row group must hold >= 1 vertex");
    GOPIM_ASSERT(params.coldPeriod >= 1, "cold period must be >= 1");
    const auto n = static_cast<uint32_t>(degrees.size());
    const size_t keep = keptVertexCount(n, params.theta);
    const auto numGroups = static_cast<uint32_t>(ceilDiv(n, rowsPerGroup));

    const std::vector<uint32_t> order = rankByDegree(degrees);
    std::vector<uint32_t> rankOf(n);
    for (uint32_t rank = 0; rank < n; ++rank)
        rankOf[order[rank]] = rank;

    UpdateLoad load;
    load.hotVertices = std::min<size_t>(keep, n);
    load.numVertices = n;
    load.groupWrites.assign(numGroups, 0.0);
    const double coldRate = 1.0 / params.coldPeriod;
    for (uint32_t v = 0; v < n; ++v) {
        const uint32_t rank = rankOf[v];
        const uint32_t group = strategy == VertexMapStrategy::Interleaved
                                   ? rank % numGroups
                                   : v / rowsPerGroup;
        load.groupWrites[group] += rank < keep ? 1.0 : coldRate;
    }
    return load;
}

UpdateLoad
fullUpdateLoad(uint64_t numVertices, uint32_t rowsPerGroup,
               VertexMapStrategy strategy)
{
    GOPIM_ASSERT(numVertices > 0, "cannot map zero vertices");
    GOPIM_ASSERT(rowsPerGroup > 0, "row group must hold >= 1 vertex");
    const uint64_t numGroups = ceilDiv(numVertices, rowsPerGroup);
    UpdateLoad load;
    load.hotVertices = numVertices;
    load.numVertices = numVertices;
    load.groupWrites.resize(numGroups);
    for (uint64_t g = 0; g < numGroups; ++g) {
        const uint64_t size =
            strategy == VertexMapStrategy::Interleaved
                ? numVertices / numGroups + (g < numVertices % numGroups)
                : std::min<uint64_t>(rowsPerGroup,
                                     numVertices - g * rowsPerGroup);
        load.groupWrites[g] = static_cast<double>(size);
    }
    return load;
}

uint64_t
droppedDegreeMass(const std::vector<uint32_t> &degrees,
                  const std::vector<bool> &important)
{
    GOPIM_ASSERT(degrees.size() == important.size(),
                 "degree/importance size mismatch");
    uint64_t mass = 0;
    for (size_t v = 0; v < degrees.size(); ++v)
        if (!important[v])
            mass += degrees[v];
    return mass;
}

} // namespace gopim::mapping
