#include "graph/graph.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace gopim::graph {

Graph
Graph::fromEdges(VertexId numVertices,
                 std::vector<std::pair<VertexId, VertexId>> edges)
{
    Graph g;
    g.numVertices_ = numVertices;

    // Symmetrize: add both directions; keep self-loops single.
    std::vector<std::pair<VertexId, VertexId>> directed;
    directed.reserve(edges.size() * 2);
    for (auto [u, v] : edges) {
        GOPIM_ASSERT(u < numVertices && v < numVertices,
                     "edge endpoint out of range");
        directed.emplace_back(u, v);
        if (u != v)
            directed.emplace_back(v, u);
    }
    std::sort(directed.begin(), directed.end());
    directed.erase(std::unique(directed.begin(), directed.end()),
                   directed.end());

    g.rowPtr_.assign(static_cast<size_t>(numVertices) + 1, 0);
    for (auto [u, v] : directed)
        ++g.rowPtr_[u + 1];
    std::partial_sum(g.rowPtr_.begin(), g.rowPtr_.end(),
                     g.rowPtr_.begin());
    g.colIdx_.resize(directed.size());
    {
        std::vector<uint64_t> cursor(g.rowPtr_.begin(),
                                     g.rowPtr_.end() - 1);
        for (auto [u, v] : directed)
            g.colIdx_[cursor[u]++] = v;
    }

    // Count undirected edges: self-loops appear once, others twice.
    uint64_t selfLoops = 0;
    for (auto [u, v] : directed)
        if (u == v)
            ++selfLoops;
    g.numEdges_ = (directed.size() - selfLoops) / 2 + selfLoops;
    return g;
}

std::vector<uint32_t>
Graph::degrees() const
{
    std::vector<uint32_t> d(numVertices_);
    for (VertexId v = 0; v < numVertices_; ++v)
        d[v] = degree(v);
    return d;
}

double
Graph::averageDegree() const
{
    if (numVertices_ == 0)
        return 0.0;
    return static_cast<double>(colIdx_.size()) /
           static_cast<double>(numVertices_);
}

double
Graph::density() const
{
    if (numVertices_ < 2)
        return 0.0;
    const double v = static_cast<double>(numVertices_);
    return static_cast<double>(numEdges_) / (v * (v - 1.0) / 2.0);
}

bool
Graph::hasEdge(VertexId u, VertexId v) const
{
    GOPIM_ASSERT(u < numVertices_ && v < numVertices_,
                 "hasEdge: vertex out of range");
    const auto nbrs = neighbors(u);
    return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

double
GraphStats::sparsity() const
{
    if (numVertices == 0)
        return 1.0;
    const double v = static_cast<double>(numVertices);
    // Symmetric adjacency: ~2E nonzeros.
    return 1.0 - 2.0 * static_cast<double>(numEdges) / (v * v);
}

GraphStats
computeStats(const Graph &g)
{
    GraphStats s;
    s.numVertices = g.numVertices();
    s.numEdges = g.numEdges();
    s.avgDegree = g.averageDegree();
    double maxDeg = 0.0;
    for (VertexId v = 0; v < g.numVertices(); ++v)
        maxDeg = std::max(maxDeg, static_cast<double>(g.degree(v)));
    s.maxDegree = maxDeg;
    return s;
}

} // namespace gopim::graph
