/**
 * @file
 * Exact, bounded memo of allocation decisions. An allocator is a pure
 * function of its parameters and the AllocationProblem, and a serving
 * stream asks the same few problems again and again (the problem does
 * not depend on the request seed), so Algorithm 1 needs to run only
 * once per distinct problem.
 *
 * The key is every byte allocate() can read: the allocator's memoKey()
 * (policy and parameters) and each problem field, doubles by bit
 * pattern. Entries are fingerprint-bucketed and full-key-verified
 * (common/fingerprint_cache.hh), so two problems can never alias; a
 * hit returns exactly what allocate() returned for the bit-identical
 * input.
 */

#ifndef GOPIM_ALLOC_MEMO_HH
#define GOPIM_ALLOC_MEMO_HH

#include <memory>
#include <string>

#include "alloc/allocator.hh"
#include "common/fingerprint_cache.hh"

namespace gopim::alloc {

/** Exact memo key for `problem` under an allocator's memoKey(). */
std::string allocationMemoKey(const std::string &allocatorKey,
                              const AllocationProblem &problem);

/** Bounded (FIFO) map of exact allocation keys to results. */
class AllocationMemo : public FingerprintCache<AllocationResult>
{
  public:
    /** Resident entries: far above the distinct problems of a stream. */
    static constexpr size_t kCapacity = 256;

    AllocationMemo() : FingerprintCache(kCapacity) {}
};

/**
 * Decorator that answers allocate() from a memo, running the wrapped
 * allocator only on a miss. Reports under the wrapped allocator's
 * name, so results and their bytes do not change; declares no memo
 * key itself, so memoized() never wraps it twice.
 */
class MemoizedAllocator : public Allocator
{
  public:
    /** `memo` must outlive this allocator. */
    MemoizedAllocator(std::shared_ptr<const Allocator> inner,
                      AllocationMemo *memo);

    AllocationResult allocate(
        const AllocationProblem &problem) const override;
    std::string name() const override { return inner_->name(); }

  private:
    std::shared_ptr<const Allocator> inner_;
    AllocationMemo *memo_;
    std::string key_;
};

/**
 * `allocator` served through `memo` when it declares a memo key;
 * otherwise (and for null) `allocator` itself.
 */
std::shared_ptr<const Allocator> memoized(
    std::shared_ptr<const Allocator> allocator, AllocationMemo *memo);

} // namespace gopim::alloc

#endif // GOPIM_ALLOC_MEMO_HH
