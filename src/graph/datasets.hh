/**
 * @file
 * Dataset catalog mirroring Table III of the paper.
 *
 * Each entry records the published statistics of the OGB dataset (or
 * Cora) it stands in for; synthetic graphs and degree sequences are
 * generated on demand to match those statistics (see DESIGN.md §1).
 */

#ifndef GOPIM_GRAPH_DATASETS_HH
#define GOPIM_GRAPH_DATASETS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "graph/graph.hh"

namespace gopim::graph {

/** Prediction task type of a dataset (Table III "Category"). */
enum class TaskType { LinkPrediction, NodePrediction };

/** Catalog entry with the published Table III statistics. */
struct DatasetSpec
{
    std::string name;
    TaskType task = TaskType::NodePrediction;
    uint64_t numVertices = 0;
    uint64_t numEdges = 0;
    double avgDegree = 0.0;
    uint32_t featureDim = 0;

    /** Paper classification: avg degree <= 8 is "sparse" (§VI-C). */
    bool isSparse() const { return avgDegree <= 8.0; }

    /** Summary statistics view used by the timing model. */
    GraphStats stats() const;
};

/** Registry of the seven datasets in Table III. */
class DatasetCatalog
{
  public:
    /** All seven entries in Table III order. */
    static const std::vector<DatasetSpec> &all();

    /** Lookup by name; fatal() on unknown names. */
    static const DatasetSpec &byName(const std::string &name);

    /** Non-fatal lookup; nullptr on unknown names. */
    static const DatasetSpec *findByName(const std::string &name);

    /** The five datasets used in Fig. 13 (overall comparison). */
    static std::vector<DatasetSpec> figure13Set();

    /** The six datasets used in the motivation study (Figs. 4 and 6). */
    static std::vector<DatasetSpec> motivationSet();

    /**
     * Sample a degree sequence matching the spec's vertex count and
     * average degree (power-law, alpha = 2.1). `scale` divides the
     * vertex count (degree distribution is preserved); use < 1 scale
     * only for the very large graphs where full materialization is
     * unnecessary for the timing model.
     */
    static std::vector<uint32_t> degreeSequence(const DatasetSpec &spec,
                                                double scale, Rng &rng);

    /** Length of degreeSequence(spec, scale, ...): at least 2. */
    static uint64_t scaledVertexCount(const DatasetSpec &spec,
                                      double scale);

    /**
     * Materialize a synthetic graph matching the (scaled) spec via
     * Chung-Lu sampling on the degree sequence above.
     */
    static Graph materialize(const DatasetSpec &spec, double scale,
                             Rng &rng);

    /** Spec with vertex/edge counts scaled by `scale` (stats only). */
    static DatasetSpec scaled(const DatasetSpec &spec, double scale);
};

} // namespace gopim::graph

#endif // GOPIM_GRAPH_DATASETS_HH
