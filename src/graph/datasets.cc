#include "graph/datasets.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "graph/generators.hh"

namespace gopim::graph {

GraphStats
DatasetSpec::stats() const
{
    GraphStats s;
    s.numVertices = numVertices;
    s.numEdges = numEdges;
    s.avgDegree = avgDegree;
    // Power-law tail estimate for the maximum degree.
    s.maxDegree = std::min<double>(
        static_cast<double>(numVertices) - 1.0,
        avgDegree * std::sqrt(static_cast<double>(numVertices)));
    return s;
}

const std::vector<DatasetSpec> &
DatasetCatalog::all()
{
    // Table III of the paper, verbatim statistics.
    static const std::vector<DatasetSpec> specs = {
        {"ddi", TaskType::LinkPrediction, 4267, 1334889, 500.5, 256},
        {"collab", TaskType::LinkPrediction, 235868, 1285465, 8.2, 128},
        {"ppa", TaskType::LinkPrediction, 576289, 30326273, 73.7, 58},
        {"proteins", TaskType::NodePrediction, 132534, 39561252, 597.0, 8},
        {"arxiv", TaskType::NodePrediction, 169343, 1166243, 13.7, 128},
        {"products", TaskType::NodePrediction, 2449029, 61859140, 50.5,
         100},
        {"Cora", TaskType::NodePrediction, 2708, 10556, 3.9, 1433},
    };
    return specs;
}

const DatasetSpec &
DatasetCatalog::byName(const std::string &name)
{
    const DatasetSpec *spec = findByName(name);
    if (!spec)
        fatal("unknown dataset '", name, "'");
    return *spec;
}

const DatasetSpec *
DatasetCatalog::findByName(const std::string &name)
{
    for (const auto &spec : all())
        if (spec.name == name)
            return &spec;
    return nullptr;
}

std::vector<DatasetSpec>
DatasetCatalog::figure13Set()
{
    return {byName("ddi"), byName("collab"), byName("ppa"),
            byName("proteins"), byName("arxiv")};
}

std::vector<DatasetSpec>
DatasetCatalog::motivationSet()
{
    return {byName("ddi"), byName("collab"), byName("ppa"),
            byName("proteins"), byName("arxiv"), byName("products")};
}

std::vector<uint32_t>
DatasetCatalog::degreeSequence(const DatasetSpec &spec, double scale,
                               Rng &rng)
{
    GOPIM_ASSERT(scale > 0.0 && scale <= 1.0,
                 "dataset scale must be in (0, 1]");
    const uint64_t n = scaledVertexCount(spec, scale);
    const auto maxDeg = static_cast<uint32_t>(
        std::min<double>(static_cast<double>(n) - 1.0,
                         spec.avgDegree * 50.0));
    return powerLawDegreeSequence(n, spec.avgDegree, 2.1,
                                  std::max<uint32_t>(maxDeg, 2), rng);
}

uint64_t
DatasetCatalog::scaledVertexCount(const DatasetSpec &spec, double scale)
{
    return std::max<uint64_t>(
        2, static_cast<uint64_t>(
               static_cast<double>(spec.numVertices) * scale));
}

Graph
DatasetCatalog::materialize(const DatasetSpec &spec, double scale,
                            Rng &rng)
{
    const auto degrees = degreeSequence(spec, scale, rng);
    return chungLu(degrees, rng);
}

DatasetSpec
DatasetCatalog::scaled(const DatasetSpec &spec, double scale)
{
    GOPIM_ASSERT(scale > 0.0 && scale <= 1.0,
                 "dataset scale must be in (0, 1]");
    DatasetSpec out = spec;
    out.numVertices = scaledVertexCount(spec, scale);
    out.numEdges = std::max<uint64_t>(
        1, static_cast<uint64_t>(
               static_cast<double>(spec.numEdges) * scale));
    // Average degree is preserved by design.
    return out;
}

} // namespace gopim::graph
