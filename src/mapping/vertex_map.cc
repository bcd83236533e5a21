#include "mapping/vertex_map.hh"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/logging.hh"
#include "common/math_utils.hh"

namespace gopim::mapping {

std::string
toString(VertexMapStrategy s)
{
    switch (s) {
      case VertexMapStrategy::IndexBased:
        return "index-based";
      case VertexMapStrategy::Interleaved:
        return "interleaved";
    }
    panic("unknown mapping strategy");
}

std::vector<uint32_t>
rankByDegree(const std::vector<uint32_t> &degrees)
{
    if (degrees.empty())
        return {};
    const uint32_t maxDeg =
        *std::max_element(degrees.begin(), degrees.end());
    // Bucket b holds degree maxDeg - b, so buckets run in rank order;
    // after the prefix sum, next[b] is the first free rank in b.
    std::vector<uint32_t> next(static_cast<size_t>(maxDeg) + 1, 0);
    for (uint32_t d : degrees)
        ++next[maxDeg - d];
    uint32_t rank = 0;
    for (uint32_t &slot : next)
        rank += std::exchange(slot, rank);
    std::vector<uint32_t> order(degrees.size());
    for (uint32_t v = 0; v < order.size(); ++v)
        order[next[maxDeg - degrees[v]]++] = v;
    return order;
}

VertexAssignment
mapVertices(const std::vector<uint32_t> &degrees, uint32_t rowsPerGroup,
            VertexMapStrategy strategy)
{
    GOPIM_ASSERT(!degrees.empty(), "cannot map zero vertices");
    GOPIM_ASSERT(rowsPerGroup > 0, "row group must hold >= 1 vertex");

    const auto n = static_cast<uint32_t>(degrees.size());
    VertexAssignment out;
    out.rowsPerGroup = rowsPerGroup;
    out.numGroups = static_cast<uint32_t>(ceilDiv(n, rowsPerGroup));
    out.groupOf.resize(n);

    switch (strategy) {
      case VertexMapStrategy::IndexBased:
        for (uint32_t v = 0; v < n; ++v)
            out.groupOf[v] = v / rowsPerGroup;
        break;

      case VertexMapStrategy::Interleaved: {
        // Deal the degree ranking round-robin across groups: rank i
        // -> group i % numGroups. Group capacity is respected
        // automatically because each group receives every
        // numGroups-th rank.
        const std::vector<uint32_t> order = rankByDegree(degrees);
        for (uint32_t rank = 0; rank < n; ++rank)
            out.groupOf[order[rank]] = rank % out.numGroups;
        break;
      }
    }
    return out;
}

std::vector<double>
perGroupAvgDegree(const VertexAssignment &assignment,
                  const std::vector<uint32_t> &degrees)
{
    GOPIM_ASSERT(assignment.groupOf.size() == degrees.size(),
                 "assignment/degree size mismatch");
    std::vector<double> sums(assignment.numGroups, 0.0);
    std::vector<uint32_t> counts(assignment.numGroups, 0);
    for (size_t v = 0; v < degrees.size(); ++v) {
        sums[assignment.groupOf[v]] += degrees[v];
        ++counts[assignment.groupOf[v]];
    }
    for (size_t g = 0; g < sums.size(); ++g)
        if (counts[g] > 0)
            sums[g] /= counts[g];
    return sums;
}

double
MinMax::skew() const
{
    return max / std::max(min, 1e-9);
}

MinMax
minMax(const std::vector<double> &values)
{
    GOPIM_ASSERT(!values.empty(), "minMax of empty vector");
    MinMax mm;
    mm.min = *std::min_element(values.begin(), values.end());
    mm.max = *std::max_element(values.begin(), values.end());
    return mm;
}

std::vector<uint32_t>
remapGroupsByHealth(const std::vector<double> &groupLoad,
                    const std::vector<double> &groupFaultScore)
{
    GOPIM_ASSERT(groupLoad.size() == groupFaultScore.size(),
                 "load/fault score size mismatch");
    GOPIM_ASSERT(!groupLoad.empty(), "cannot remap zero groups");

    const auto n = static_cast<uint32_t>(groupLoad.size());
    std::vector<uint32_t> byLoad(n), byHealth(n);
    std::iota(byLoad.begin(), byLoad.end(), 0);
    std::iota(byHealth.begin(), byHealth.end(), 0);
    std::stable_sort(byLoad.begin(), byLoad.end(),
                     [&groupLoad](uint32_t a, uint32_t b) {
                         return groupLoad[a] != groupLoad[b]
                                    ? groupLoad[a] > groupLoad[b]
                                    : a < b;
                     });
    std::stable_sort(
        byHealth.begin(), byHealth.end(),
        [&groupFaultScore](uint32_t a, uint32_t b) {
            return groupFaultScore[a] != groupFaultScore[b]
                       ? groupFaultScore[a] < groupFaultScore[b]
                       : a < b;
        });

    std::vector<uint32_t> physicalOf(n);
    for (uint32_t rank = 0; rank < n; ++rank)
        physicalOf[byLoad[rank]] = byHealth[rank];
    return physicalOf;
}

} // namespace gopim::mapping
