/**
 * @file
 * GoPIM's max-heap greedy crossbar allocator (Algorithm 1).
 *
 * Two indexed max-heaps drive the decision: H_v keys stages by the
 * makespan reduction per crossbar of adding one more replica (the
 * "adjustment value"), H_p keys stages by their current execution time
 * so the pipeline bottleneck (which carries the (B-1) weight in Eq. 6)
 * is known in O(1). Each iteration grants one replica to the H_v top,
 * updates both heaps, and repeats until the spare budget cannot buy
 * any beneficial replica.
 */

#ifndef GOPIM_ALLOC_GREEDY_HEAP_HH
#define GOPIM_ALLOC_GREEDY_HEAP_HH

#include <cstdint>
#include <vector>

#include "alloc/allocator.hh"

namespace gopim::alloc {

/**
 * Binary max-heap over a fixed id universe with updatable keys.
 * Exposed for unit testing; used by the greedy allocator for both
 * H_v and H_p.
 */
class IndexedMaxHeap
{
  public:
    /** Heap over ids 0..universe-1; starts empty. */
    explicit IndexedMaxHeap(size_t universe);

    bool empty() const { return heap_.empty(); }
    size_t size() const { return heap_.size(); }
    bool contains(size_t id) const;

    /** Insert id with the given key; id must not be present. */
    void push(size_t id, double key);

    /** Id with the maximum key. */
    size_t topId() const;

    /** Maximum key. */
    double topKey() const;

    /** Change the key of a present id (up or down). */
    void updateKey(size_t id, double key);

    /** Remove a present id. */
    void remove(size_t id);

    /** Current key of a present id. */
    double keyOf(size_t id) const;

  private:
    struct Entry
    {
        size_t id;
        double key;
    };

    void siftUp(size_t pos);
    void siftDown(size_t pos);
    void swapEntries(size_t a, size_t b);

    std::vector<Entry> heap_;
    std::vector<size_t> position_; ///< id -> heap index, npos if absent
    static constexpr size_t kAbsent = static_cast<size_t>(-1);
};

/** GoPIM's Algorithm 1 allocator. */
class GreedyHeapAllocator : public Allocator
{
  public:
    /**
     * maxReplicasPerStage caps per-stage replication (0 = unlimited).
     * relStopTol stops the loop once one more replica would improve
     * the makespan by less than this fraction — replicating past the
     * point of diminishing returns only burns leakage power, which is
     * why Table VI's allocations stay well under the chip budget.
     */
    explicit GreedyHeapAllocator(uint32_t maxReplicasPerStage = 0,
                                 double relStopTol = 1e-4);

    AllocationResult allocate(
        const AllocationProblem &problem) const override;
    std::string name() const override { return "GreedyHeap"; }
    std::string memoKey() const override;

  private:
    uint32_t maxReplicas_;
    double relStopTol_;
};

} // namespace gopim::alloc

#endif // GOPIM_ALLOC_GREEDY_HEAP_HH
