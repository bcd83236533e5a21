#include "sim/timeline_cache.hh"

#include "common/hash.hh"

namespace gopim::sim {

std::string
timelineCacheKey(const ScheduleRequest &request, const SimContext &ctx)
{
    std::string key;
    key.reserve(32 + 8 * request.stageTimesNs.size() +
                4 * request.replicas.size());
    key.push_back(static_cast<char>(request.regime));
    packKey(&key, request.totalMicroBatches);
    packKey(&key, request.microBatchesPerBatch);
    packKey(&key, ctx.event.inputBufferSlots);
    key.push_back(ctx.event.replicasAsServers ? 1 : 0);
    packKey(&key, ctx.event.refreshEveryMicroBatches);
    packKey(&key, ctx.event.refreshStallNs);
    // Vector lengths delimit the variable sections so two requests
    // can never concatenate to the same byte string.
    packKey(&key, uint64_t{request.stageTimesNs.size()});
    for (double t : request.stageTimesNs)
        packKey(&key, t);
    packKey(&key, uint64_t{request.replicas.size()});
    for (uint32_t r : request.replicas)
        packKey(&key, r);
    return key;
}

} // namespace gopim::sim
