#include "alloc/greedy_heap.hh"

#include <algorithm>
#include <limits>

#include "common/hash.hh"
#include "common/logging.hh"

namespace gopim::alloc {

IndexedMaxHeap::IndexedMaxHeap(size_t universe)
    : position_(universe, kAbsent)
{
}

bool
IndexedMaxHeap::contains(size_t id) const
{
    GOPIM_ASSERT(id < position_.size(), "heap id out of universe");
    return position_[id] != kAbsent;
}

void
IndexedMaxHeap::push(size_t id, double key)
{
    GOPIM_ASSERT(!contains(id), "heap id already present");
    heap_.push_back({id, key});
    position_[id] = heap_.size() - 1;
    siftUp(heap_.size() - 1);
}

size_t
IndexedMaxHeap::topId() const
{
    GOPIM_ASSERT(!heap_.empty(), "top of empty heap");
    return heap_.front().id;
}

double
IndexedMaxHeap::topKey() const
{
    GOPIM_ASSERT(!heap_.empty(), "top of empty heap");
    return heap_.front().key;
}

void
IndexedMaxHeap::updateKey(size_t id, double key)
{
    GOPIM_ASSERT(contains(id), "updateKey on absent id");
    const size_t pos = position_[id];
    const double old = heap_[pos].key;
    heap_[pos].key = key;
    if (key > old)
        siftUp(pos);
    else
        siftDown(pos);
}

void
IndexedMaxHeap::remove(size_t id)
{
    GOPIM_ASSERT(contains(id), "remove of absent id");
    const size_t pos = position_[id];
    swapEntries(pos, heap_.size() - 1);
    position_[id] = kAbsent;
    heap_.pop_back();
    if (pos < heap_.size()) {
        siftUp(pos);
        siftDown(pos);
    }
}

double
IndexedMaxHeap::keyOf(size_t id) const
{
    GOPIM_ASSERT(contains(id), "keyOf absent id");
    return heap_[position_[id]].key;
}

void
IndexedMaxHeap::swapEntries(size_t a, size_t b)
{
    std::swap(heap_[a], heap_[b]);
    position_[heap_[a].id] = a;
    position_[heap_[b].id] = b;
}

void
IndexedMaxHeap::siftUp(size_t pos)
{
    while (pos > 0) {
        const size_t parent = (pos - 1) / 2;
        if (heap_[parent].key >= heap_[pos].key)
            break;
        swapEntries(parent, pos);
        pos = parent;
    }
}

void
IndexedMaxHeap::siftDown(size_t pos)
{
    while (true) {
        const size_t left = 2 * pos + 1;
        const size_t right = 2 * pos + 2;
        size_t largest = pos;
        if (left < heap_.size() &&
            heap_[left].key > heap_[largest].key)
            largest = left;
        if (right < heap_.size() &&
            heap_[right].key > heap_[largest].key)
            largest = right;
        if (largest == pos)
            break;
        swapEntries(pos, largest);
        pos = largest;
    }
}

GreedyHeapAllocator::GreedyHeapAllocator(uint32_t maxReplicasPerStage,
                                         double relStopTol)
    : maxReplicas_(maxReplicasPerStage), relStopTol_(relStopTol)
{
    GOPIM_ASSERT(relStopTol >= 0.0, "stop tolerance must be >= 0");
}

std::string
GreedyHeapAllocator::memoKey() const
{
    std::string key = name();
    packKey(&key, maxReplicas_);
    packKey(&key, relStopTol_);
    return key;
}

AllocationResult
GreedyHeapAllocator::allocate(const AllocationProblem &problem) const
{
    problem.validate();
    const size_t n = problem.numStages();
    std::vector<uint32_t> replicas(n, 1);
    uint64_t spare = problem.spareCrossbars;
    const double bottleneckWeight =
        static_cast<double>(problem.numMicroBatches - 1);

    // H_p: current execution time of each stage.
    IndexedMaxHeap hp(n);
    for (size_t i = 0; i < n; ++i)
        hp.push(i, stageTimeNs(problem, i, 1));

    // Adjustment value of granting one replica to stage i: makespan
    // reduction per crossbar spent. The Eq. 6 bottleneck term gives
    // the current H_p top an extra (B - 1) weight on its time delta.
    auto adjustValue = [&](size_t i) {
        if (maxReplicas_ > 0 && replicas[i] >= maxReplicas_)
            return 0.0;
        // stageTimeNs honors the problem's effective-parallelism
        // ceiling, so the delta vanishes once replicas stop helping.
        const double delta = stageTimeNs(problem, i, replicas[i]) -
                             stageTimeNs(problem, i, replicas[i] + 1);
        const double weight =
            hp.topId() == i ? 1.0 + bottleneckWeight : 1.0;
        return delta * weight /
               static_cast<double>(problem.crossbarsPerReplica[i]);
    };

    // H_v: adjustment values.
    IndexedMaxHeap hv(n);
    for (size_t i = 0; i < n; ++i)
        hv.push(i, adjustValue(i));

    // Running sum of stage times for the Eq. 6 makespan.
    double timeSum = 0.0;
    for (size_t i = 0; i < n; ++i)
        timeSum += stageTimeNs(problem, i, 1);

    // Stages priced out of the remaining budget leave H_v; track them
    // to re-admit nobody (budget only shrinks).
    while (!hv.empty() && hv.topKey() > 0.0) {
        const size_t v = hv.topId();
        if (problem.crossbarsPerReplica[v] > spare) {
            hv.remove(v);
            continue;
        }
        // Diminishing-returns pruning: a stage leaves the candidate
        // set only when even its *optimistic* gain — the one it would
        // have as the pipeline bottleneck, where the (B-1) weight of
        // Eq. 6 applies — buys less than relStopTol of the makespan.
        // Pruning on the current (possibly weight-1) gain would
        // permanently starve stages that become the bottleneck later.
        const double makespan =
            timeSum + bottleneckWeight * hp.topKey();
        const double delta = stageTimeNs(problem, v, replicas[v]) -
                             stageTimeNs(problem, v, replicas[v] + 1);
        const double optimisticGain =
            delta * (1.0 + bottleneckWeight);
        if (optimisticGain < relStopTol_ * makespan) {
            hv.remove(v);
            continue;
        }
        const size_t oldBottleneck = hp.topId();

        // Grant one replica to the best-value stage (Alg. 1 line 7).
        timeSum -= stageTimeNs(problem, v, replicas[v]);
        ++replicas[v];
        timeSum += stageTimeNs(problem, v, replicas[v]);
        spare -= problem.crossbarsPerReplica[v];
        hp.updateKey(v, stageTimeNs(problem, v, replicas[v]));
        hv.updateKey(v, adjustValue(v));

        // If the bottleneck moved, both the old and new bottleneck
        // stages change weight in the adjustment value (Alg. 1's
        // top-down heap repair after comparing H_v and H_p tops).
        const size_t newBottleneck = hp.topId();
        if (newBottleneck != oldBottleneck) {
            if (hv.contains(oldBottleneck))
                hv.updateKey(oldBottleneck, adjustValue(oldBottleneck));
            if (hv.contains(newBottleneck))
                hv.updateKey(newBottleneck, adjustValue(newBottleneck));
        }
    }

    // Right-sizing pass: the grant loop optimizes the makespan alone
    // and can leave cheap stages far faster than the bottleneck; those
    // surplus replicas only burn crossbars and idle energy. Trim any
    // replica whose removal keeps the stage at or under the bottleneck
    // time and costs less than the same relStopTol makespan fraction
    // the grant rule used — keeping stage times balanced, which is
    // what slashes the crossbar idle time (Fig. 15).
    {
        double maxTime = 0.0;
        for (size_t i = 0; i < n; ++i)
            maxTime = std::max(maxTime,
                               stageTimeNs(problem, i, replicas[i]));
        double timeSumNow = 0.0;
        for (size_t i = 0; i < n; ++i)
            timeSumNow += stageTimeNs(problem, i, replicas[i]);
        const double makespanNow =
            timeSumNow + bottleneckWeight * maxTime;
        for (size_t i = 0; i < n; ++i) {
            while (replicas[i] > 1) {
                const double slower =
                    stageTimeNs(problem, i, replicas[i] - 1);
                const double delta =
                    slower - stageTimeNs(problem, i, replicas[i]);
                if (slower > maxTime ||
                    delta >= relStopTol_ * makespanNow)
                    break;
                --replicas[i];
            }
        }
    }
    return finish(problem, std::move(replicas));
}

} // namespace gopim::alloc
