#include "gcn/workload.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/math_utils.hh"

namespace gopim::gcn {

uint32_t
Workload::microBatchesPerEpoch() const
{
    GOPIM_ASSERT(microBatchSize > 0, "micro-batch size must be > 0");
    return static_cast<uint32_t>(
        ceilDiv(dataset.numVertices, microBatchSize));
}

Workload
Workload::paperDefault(const std::string &datasetName)
{
    Workload w;
    w.dataset = graph::DatasetCatalog::byName(datasetName);
    w.model = paperModelFor(datasetName);
    w.microBatchSize = 64; // paper default (Section VII-A)
    w.epochs = 1;
    return w;
}

double
ExecutionPolicy::resolvedTheta(const graph::DatasetSpec &dataset) const
{
    if (!selectiveUpdate)
        return 1.0;
    if (theta > 0.0)
        return theta;
    return mapping::adaptiveTheta(dataset.avgDegree);
}

bool
ExecutionPolicy::readsDegrees(const graph::DatasetSpec &dataset) const
{
    const uint64_t n = VertexProfile::vertexCount(dataset);
    return mapping::keptVertexCount(n, resolvedTheta(dataset)) < n;
}

uint64_t
VertexProfile::vertexCount(const graph::DatasetSpec &dataset)
{
    return graph::DatasetCatalog::scaledVertexCount(dataset, 1.0);
}

VertexProfile
VertexProfile::build(const graph::DatasetSpec &dataset, uint64_t seed)
{
    Rng rng(seed);
    VertexProfile profile;
    profile.degrees =
        graph::DatasetCatalog::degreeSequence(dataset, 1.0, rng);

    // Real OGB vertex ids correlate strongly with degree (insertion
    // order, community structure), which is what produces Fig. 6's
    // per-crossbar skew under index mapping and defeats OSU (Fig. 7).
    // Reproduce that: globally degree-sorted ids with local shuffling.
    // The sort is a descending counting sort: degreeSequence caps
    // degrees at min(n - 1, 50 * avgDegree), so it costs O(n + maxDeg).
    auto &degrees = profile.degrees;
    std::vector<uint32_t> count(
        static_cast<size_t>(
            *std::max_element(degrees.begin(), degrees.end())) + 1, 0);
    for (uint32_t d : degrees)
        ++count[d];
    auto out = degrees.begin();
    for (size_t d = count.size(); d-- > 0;)
        out = std::fill_n(out, count[d], static_cast<uint32_t>(d));

    const size_t window = 256;
    for (size_t begin = 0; begin < degrees.size(); begin += window) {
        const size_t end = std::min(begin + window, degrees.size());
        for (size_t i = end - begin; i > 1; --i) {
            const size_t j = rng.uniformInt(static_cast<uint64_t>(i));
            std::swap(degrees[begin + i - 1], degrees[begin + j]);
        }
    }
    return profile;
}

} // namespace gopim::gcn
