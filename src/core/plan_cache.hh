/**
 * @file
 * Thread-safe cache of sim-independent StagePlans, keyed by the
 * canonical plan-config prefix (core::planConfigPrefix). The memoized
 * runGrid path uses it so grid neighbors that differ only in their
 * sim context — engine, seed, event knobs — reuse one plan instead
 * of re-running mapping, costing, fault planning, and allocation.
 *
 * Keys are two-level (common/fingerprint_cache.hh): an FNV-1a
 * fingerprint of the prefix JSON buckets the entries, and the full
 * prefix string is compared inside the bucket — so a fingerprint
 * collision between two different configurations can never alias
 * their plans (pinned by the cache-poisoning test in
 * tests/test_core.cc).
 */

#ifndef GOPIM_CORE_PLAN_CACHE_HH
#define GOPIM_CORE_PLAN_CACHE_HH

#include "common/fingerprint_cache.hh"
#include "core/accelerator.hh"

namespace gopim::core {

/** Unbounded, full-key-verified StagePlan cache. */
class PlanCache : public FingerprintCache<StagePlan>
{
};

} // namespace gopim::core

#endif // GOPIM_CORE_PLAN_CACHE_HH
