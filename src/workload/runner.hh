/**
 * @file
 * Workload runner: executes a compiled StagePlan on the accelerator
 * substrate — replica allocation, pipelining on the configured
 * scheduling engine (with ISA recording/replay riding along), and
 * energy accounting — producing the same core::RunResult the
 * GCN-training path emits, so every downstream reporter (tables,
 * JSON, serve envelopes) works on inference runs unchanged.
 *
 * The arithmetic deliberately mirrors core::Accelerator's fault-free
 * path (accelerator.cc): estimate-driven allocation scales the
 * modeled times only for the allocator's decision, effective replicas
 * cap at the plan's parallelism ceiling, and replicas-as-servers mode
 * hands the engine single-replica times. tests/test_workload.cc pins
 * the gcn-train family to the accelerator path bit-for-bit.
 */

#ifndef GOPIM_WORKLOAD_RUNNER_HH
#define GOPIM_WORKLOAD_RUNNER_HH

#include "alloc/allocator.hh"
#include "core/accelerator.hh"
#include "core/result.hh"
#include "workload/family.hh"

namespace gopim::workload {

/**
 * Build the replica-allocation problem for a plan on `hw`. fatal()s
 * when even single replicas of every stage exceed the chip budget.
 */
alloc::AllocationProblem
allocationProblem(const StagePlan &plan,
                  const reram::AcceleratorConfig &hw);

/**
 * Deterministic stage-time estimates for predictor-style allocation
 * studies: the plan's exact single-replica times perturbed by a
 * relative error drawn per stage from [-relErr, +relErr] (seeded).
 * Families without a trained predictor (the inference ones) use this
 * to exercise the estimate-driven allocation path.
 */
std::vector<double> perturbedEstimates(const StagePlan &plan,
                                       double relErr, uint64_t seed);

/**
 * Run a compiled plan under a system configuration (allocator,
 * pipelining mode, sim context). `estimatedStageTimesNs` optionally
 * drives the allocation decision (final times stay exact); empty
 * means allocate on the exact model.
 */
core::RunResult
runPlan(const StagePlan &plan, const core::SystemConfig &system,
        const reram::AcceleratorConfig &hw,
        const std::vector<double> &estimatedStageTimesNs = {});

/**
 * Compile: validate the spec against its family (fatal() with the
 * family's diagnostic on bad specs) and build its plan. The plan does
 * not depend on the system, so one plan serves a run and its
 * baseline.
 */
StagePlan planFamily(const WorkloadSpec &spec,
                     const reram::AcceleratorConfig &hw);

/** runPlan on `spec`'s compiled `plan`, labelled with its dataset. */
core::RunResult
runFamily(const WorkloadSpec &spec, const StagePlan &plan,
          const core::SystemConfig &system,
          const reram::AcceleratorConfig &hw,
          const std::vector<double> &estimatedStageTimesNs = {});

/**
 * Compile and run: planFamily, then execute the plan under `system`.
 * The one-call entry point for tools and serving.
 */
core::RunResult
runFamily(const WorkloadSpec &spec, const core::SystemConfig &system,
          const reram::AcceleratorConfig &hw,
          const std::vector<double> &estimatedStageTimesNs = {});

} // namespace gopim::workload

#endif // GOPIM_WORKLOAD_RUNNER_HH
