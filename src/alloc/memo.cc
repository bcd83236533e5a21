#include "alloc/memo.hh"

#include <utility>

#include "common/hash.hh"
#include "common/logging.hh"

namespace gopim::alloc {

std::string
allocationMemoKey(const std::string &allocatorKey,
                  const AllocationProblem &problem)
{
    const size_t n = problem.numStages();
    std::string key;
    key.reserve(48 + allocatorKey.size() + 32 * n);
    // Lengths delimit the variable sections so two inputs can never
    // concatenate to the same bytes.
    packKey(&key, uint64_t{allocatorKey.size()});
    key += allocatorKey;
    packKey(&key, problem.spareCrossbars);
    packKey(&key, problem.numMicroBatches);
    packKey(&key, problem.maxUsefulReplicas);
    packKey(&key, uint64_t{n});
    for (const pipeline::Stage &stage : problem.stages) {
        packKey(&key, stage.type);
        packKey(&key, stage.layer);
    }
    packKey(&key, uint64_t{problem.scalableTimesNs.size()});
    for (double t : problem.scalableTimesNs)
        packKey(&key, t);
    packKey(&key, uint64_t{problem.fixedTimesNs.size()});
    for (double t : problem.fixedTimesNs)
        packKey(&key, t);
    packKey(&key, uint64_t{problem.crossbarsPerReplica.size()});
    for (uint64_t xbars : problem.crossbarsPerReplica)
        packKey(&key, xbars);
    return key;
}

MemoizedAllocator::MemoizedAllocator(
    std::shared_ptr<const Allocator> inner, AllocationMemo *memo)
    : inner_(std::move(inner)), memo_(memo), key_(inner_->memoKey())
{
    GOPIM_ASSERT(memo_ != nullptr, "memoized allocator needs a memo");
    GOPIM_ASSERT(!key_.empty(), "allocator '", inner_->name(),
                 "' declares no memo key");
}

AllocationResult
MemoizedAllocator::allocate(const AllocationProblem &problem) const
{
    std::string key = allocationMemoKey(key_, problem);
    const uint64_t fingerprint = fnv1a64(key);
    if (const auto hit = memo_->find(fingerprint, key))
        return *hit;
    return *memo_->insert(fingerprint, std::move(key),
                          inner_->allocate(problem));
}

std::shared_ptr<const Allocator>
memoized(std::shared_ptr<const Allocator> allocator,
         AllocationMemo *memo)
{
    if (!allocator || allocator->memoKey().empty())
        return allocator;
    return std::make_shared<MemoizedAllocator>(std::move(allocator),
                                               memo);
}

} // namespace gopim::alloc
