/**
 * @file
 * Memo for the discrete-event timing path (scheduleEventPath): when a
 * schedule's dynamics are provably seed-independent — no write-retry
 * sampling, the only stochastic knob — the resulting StageTimeline is
 * a pure function of the request and the event knobs, so re-running
 * the simulator for a grid neighbor that differs only in its seed (or
 * for the replay engine timing the identical stream) is wasted work.
 *
 * The cache key packs every input the event path reads: stage times
 * and replica counts bit-for-bit, the regime and micro-batch
 * structure, buffer slots, replicas-as-servers, and the refresh
 * knobs. Entries are fingerprint-bucketed and full-key-verified
 * (common/fingerprint_cache.hh), so fingerprint collisions can never
 * alias two different schedules. Hits return the exact timeline the simulator
 * would have produced — bit-identical, pinned by the engine tests.
 *
 * Callers must NOT consult the cache when the timeline is
 * seed-dependent (writeRetryProb > 0) or carries per-run extras the
 * key cannot see (recordWindows); scheduleEventPath enforces both.
 */

#ifndef GOPIM_SIM_TIMELINE_CACHE_HH
#define GOPIM_SIM_TIMELINE_CACHE_HH

#include <string>

#include "common/fingerprint_cache.hh"
#include "sim/engine.hh"

namespace gopim::sim {

/** Byte-exact cache key for one (request, event-knobs) pair. */
std::string timelineCacheKey(const ScheduleRequest &request,
                             const SimContext &ctx);

/** Unbounded, full-key-verified StageTimeline cache. */
class TimelineCache : public FingerprintCache<StageTimeline>
{
};

} // namespace gopim::sim

#endif // GOPIM_SIM_TIMELINE_CACHE_HH
