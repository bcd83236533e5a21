/**
 * @file
 * Crossbar replica allocation interface (Section V-B).
 *
 * Every stage starts with one mandatory replica of its mapped matrix;
 * an allocator distributes the remaining crossbar budget as extra
 * replicas. Stage time decomposes into a scalable part (MVM compute,
 * divided by the replica count) and a fixed part (vertex update
 * writes, which every replica must receive in parallel).
 */

#ifndef GOPIM_ALLOC_ALLOCATOR_HH
#define GOPIM_ALLOC_ALLOCATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/stage.hh"

namespace gopim::alloc {

/** Input to an allocation decision. */
struct AllocationProblem
{
    /** Stage descriptors (types drive the fixed-ratio baselines). */
    std::vector<pipeline::Stage> stages;
    /** Per-stage scalable time with one replica (ns/micro-batch). */
    std::vector<double> scalableTimesNs;
    /** Per-stage fixed time, not reduced by replication (ns/mb). */
    std::vector<double> fixedTimesNs;
    /** Crossbars required for one replica of each stage. */
    std::vector<uint64_t> crossbarsPerReplica;
    /** Spare crossbars beyond the mandatory single replicas. */
    uint64_t spareCrossbars = 0;
    /** Micro-batches per pipeline fill (B in Eq. 6). */
    uint32_t numMicroBatches = 1;
    /**
     * Effective-parallelism ceiling: a stage only has so many inputs
     * in flight, so replicas beyond this count cannot shorten it
     * (0 = unlimited). Naive allocators may still *grant* more; the
     * surplus burns crossbars without buying time.
     */
    uint32_t maxUsefulReplicas = 0;

    size_t numStages() const { return stages.size(); }

    /** Validate array sizes and values; fatal() on inconsistency. */
    void validate() const;
};

/** Output: replica count per stage (>= 1 each). */
struct AllocationResult
{
    std::vector<uint32_t> replicas;
    /** Total crossbars consumed including the mandatory replicas. */
    uint64_t totalCrossbars = 0;
};

/** Stage time under a given replica count. */
double stageTimeNs(const AllocationProblem &problem, size_t stage,
                   uint32_t replicas);

/** All stage times under a replica vector. */
std::vector<double> stageTimesNs(const AllocationProblem &problem,
                                 const std::vector<uint32_t> &replicas);

/** Pipelined makespan (Eq. 6) under a replica vector. */
double makespanNs(const AllocationProblem &problem,
                  const std::vector<uint32_t> &replicas);

/** Abstract allocation policy. */
class Allocator
{
  public:
    virtual ~Allocator() = default;

    /** Decide replica counts for the problem. */
    virtual AllocationResult allocate(
        const AllocationProblem &problem) const = 0;

    /** Policy name for reports. */
    virtual std::string name() const = 0;

    /**
     * Bytes naming this policy and every parameter allocate() reads,
     * for memoization (alloc::AllocationMemo): two allocators with
     * equal non-empty keys must return equal results for equal
     * problems. Empty (the default) opts out — right for the O(n)
     * baselines, whose allocate() costs less than a lookup.
     */
    virtual std::string memoKey() const { return {}; }

  protected:
    /** Fill totalCrossbars and clamp replicas to >= 1. */
    static AllocationResult finish(const AllocationProblem &problem,
                                   std::vector<uint32_t> replicas);
};

} // namespace gopim::alloc

#endif // GOPIM_ALLOC_ALLOCATOR_HH
