#include "core/accelerator.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "fault/repair.hh"
#include "fault/wear.hh"
#include "mapping/vertex_map.hh"
#include "obs/metrics.hh"
#include "sim/engine.hh"
#include "sim/trace.hh"

namespace gopim::core {

Accelerator::Accelerator(const reram::AcceleratorConfig &hw,
                         SystemConfig system)
    : hw_(hw), system_(std::move(system)), timeModel_(hw),
      energyModel_(hw)
{
    hw_.validate();
}

RunResult
Accelerator::run(const gcn::Workload &workload) const
{
    // Only selective updating reads degrees; other policies plan
    // from the closed-form mapping artifacts.
    const auto profile =
        system_.policy.readsDegrees(workload.dataset)
            ? gcn::VertexProfile::build(workload.dataset, workload.seed)
            : gcn::VertexProfile{};
    return run(workload, profile);
}

RunResult
Accelerator::run(const gcn::Workload &workload,
                 const gcn::VertexProfile &profile) const
{
    return runWithEstimates(workload, profile, {});
}

RunResult
Accelerator::runWithEstimates(
    const gcn::Workload &workload, const gcn::VertexProfile &profile,
    const std::vector<double> &estimatedStageTimesNs) const
{
    return executePlan(
        buildPlan(workload, profile, estimatedStageTimesNs), workload);
}

StagePlan
Accelerator::buildPlan(
    const gcn::Workload &workload, const gcn::VertexProfile &profile,
    const std::vector<double> &estimatedStageTimesNs) const
{
    const auto stages =
        pipeline::buildTrainingStages(workload.model.numLayers);
    const auto artifacts = gcn::MappingArtifacts::build(
        profile, system_.policy, workload.dataset, hw_.crossbar.rows);
    const auto costs =
        timeModel_.allCosts(workload, system_.policy, artifacts);

    const uint32_t mbPerEpoch = workload.microBatchesPerEpoch();
    const uint32_t totalMicroBatches = mbPerEpoch * workload.epochs;

    // Fault/wear/repair planning. Everything below is gated on the
    // fault config so the disabled path is the exact fault-free code
    // path (the zero-fault bit-identity tests depend on that).
    const bool faultOn = system_.fault.enabled();
    fault::WearState wear;
    fault::RepairPlan plan;
    double exposure = 0.0;
    if (faultOn) {
        // Endurance wear from the schedule's actual update traffic:
        // ISU's selective updating directly reduces per-row wear.
        wear = fault::computeWear(artifacts.load,
                                  system_.policy.coldPeriod,
                                  workload.epochs,
                                  hw_.chip.writeEndurance);

        // Per-group fault severity + fault-aware remap: steer the
        // heavy write-load groups onto the healthiest hardware.
        const double cellRate = system_.fault.params.stuckOnRate +
                                system_.fault.params.stuckOffRate +
                                wear.wornRowFraction;
        const std::vector<double> &load = wear.groupWritesPerEpoch;
        const auto numGroups = static_cast<uint32_t>(load.size());
        const auto scores = fault::groupFaultScores(
            numGroups, cellRate, system_.fault.params.seed);
        const auto physicalOf =
            mapping::remapGroupsByHealth(load, scores);
        std::vector<double> seenScores(numGroups);
        for (uint32_t g = 0; g < numGroups; ++g)
            seenScores[g] = scores[physicalOf[g]];
        exposure = fault::writeExposure(load, seenScores);

        fault::RepairContext repairCtx;
        repairCtx.params = system_.fault.params;
        repairCtx.spareRowFraction = system_.fault.spareRowFraction;
        repairCtx.refreshPeriodMb = system_.fault.refreshPeriodMb;
        repairCtx.rows = hw_.crossbar.rows;
        repairCtx.cols = hw_.crossbar.cols;
        repairCtx.writeLatencyNs = hw_.crossbar.writeLatencyNs;
        repairCtx.wornRowFraction = wear.wornRowFraction;
        repairCtx.writeExposure = exposure;
        repairCtx.totalMicroBatches = totalMicroBatches;
        plan = fault::repairPolicyFor(system_.fault.repair)
                   .plan(repairCtx);
    }

    // Build the allocation problem. The allocator may be driven by
    // external time estimates (predictor study); scalable/fixed parts
    // keep their modeled proportions under the estimated totals.
    alloc::AllocationProblem problem;
    problem.stages = stages;
    problem.numMicroBatches = mbPerEpoch;
    // A stage has at most a few micro-batches' worth of inputs in
    // flight; replicas beyond that cannot shorten it.
    problem.maxUsefulReplicas = workload.microBatchSize * 4;
    uint64_t mandatory = 0;
    for (const auto &cost : costs) {
        problem.scalableTimesNs.push_back(cost.scalableNs);
        problem.fixedTimesNs.push_back(cost.fixedNs);
        uint64_t xbars = cost.crossbarsPerReplica;
        if (faultOn && plan.crossbarOverheadFactor > 1.0) {
            // Spare rows / duplicate columns shrink usable capacity.
            xbars = static_cast<uint64_t>(
                std::ceil(static_cast<double>(xbars) *
                          plan.crossbarOverheadFactor));
        }
        problem.crossbarsPerReplica.push_back(xbars);
        mandatory += xbars;
    }
    if (!estimatedStageTimesNs.empty()) {
        GOPIM_ASSERT(estimatedStageTimesNs.size() == costs.size(),
                     "estimate vector size mismatch");
        for (size_t i = 0; i < costs.size(); ++i) {
            const double total = costs[i].totalNs();
            const double ratio =
                total > 0.0 ? estimatedStageTimesNs[i] / total : 1.0;
            problem.scalableTimesNs[i] *= ratio;
            problem.fixedTimesNs[i] *= ratio;
        }
    }
    const uint64_t budget = hw_.totalCrossbars();
    if (mandatory > budget) {
        fatal("workload '", workload.dataset.name,
              "' does not fit: needs ", mandatory,
              " crossbars for single replicas, chip has ", budget);
    }
    problem.spareCrossbars = budget - mandatory;

    // Allocate replicas (single replicas when no allocator is set).
    alloc::AllocationResult allocation;
    if (system_.allocator) {
        allocation = system_.allocator->allocate(problem);
    } else {
        allocation.replicas.assign(stages.size(), 1);
        allocation.totalCrossbars = mandatory;
    }

    // Final stage times always use the exact model (estimates only
    // influence the allocation decision). Replicas beyond the
    // effective-parallelism ceiling buy nothing.
    StagePlan out;
    out.stageTimesNs.resize(stages.size());
    out.serverStageTimesNs.resize(stages.size());
    out.effectiveReplicas.resize(stages.size());
    for (size_t i = 0; i < stages.size(); ++i) {
        const uint32_t effective = std::min(
            allocation.replicas[i], problem.maxUsefulReplicas);
        out.effectiveReplicas[i] = effective;
        // Write-verify retries on faulty cells stretch the
        // write-bound (fixed) part of a stage.
        const double fixedNs =
            faultOn ? costs[i].fixedNs * plan.writeAmplification
                    : costs[i].fixedNs;
        out.stageTimesNs[i] = fixedNs +
                              costs[i].scalableNs /
                                  static_cast<double>(effective);
        // Single-replica times for the replicas-as-servers event
        // mode: replica groups serve distinct micro-batches instead
        // of splitting one.
        out.serverStageTimesNs[i] = fixedNs + costs[i].scalableNs;
    }

    out.stageCrossbars.resize(stages.size());
    for (size_t i = 0; i < stages.size(); ++i)
        out.stageCrossbars[i] =
            static_cast<uint64_t>(allocation.replicas[i]) *
            costs[i].crossbarsPerReplica;

    // Accumulate energy events over all micro-batches.
    for (const auto &cost : costs) {
        out.totalActivations +=
            cost.activationsPerMb * totalMicroBatches;
        out.totalBufferBytes +=
            cost.bufferBytesPerMb * totalMicroBatches;
    }
    // Replicated regions receive every write in parallel: the wear and
    // energy multiply, the latency does not.
    for (size_t i = 0; i < stages.size(); ++i)
        out.replicatedWrites += costs[i].rowWritesPerMb *
                                totalMicroBatches *
                                allocation.replicas[i];
    if (faultOn) {
        // Verify retries / duplication amplify every write; each
        // refresh re-programs every allocated crossbar's rows.
        out.replicatedWrites = static_cast<uint64_t>(
            static_cast<double>(out.replicatedWrites) *
            plan.writeAmplification);
        if (plan.refreshEveryMicroBatches > 0) {
            const uint64_t refreshes =
                totalMicroBatches / plan.refreshEveryMicroBatches;
            out.replicatedWrites += refreshes *
                                    plan.rowWritesPerRefresh *
                                    allocation.totalCrossbars;
        }
    }

    out.stages = stages;
    out.totalMicroBatches = totalMicroBatches;
    out.faultOn = faultOn;
    out.repairPlan = plan;
    out.wearLifetimeFraction = wear.lifetimeFraction;
    out.wornRowFraction = wear.wornRowFraction;
    out.writeExposure = exposure;
    out.replicas = std::move(allocation.replicas);
    out.totalCrossbars = allocation.totalCrossbars;
    return out;
}

RunResult
Accelerator::executePlan(const StagePlan &plan,
                         const gcn::Workload &workload) const
{
    const size_t numStages = plan.stages.size();

    // Schedule the pipelining regime on the context's timing backend
    // (closed-form Eq. 3-6 or the discrete-event flow shop). The
    // context is copied per run to keep this path stateless.
    sim::SimContext ctx = system_.sim;
    ctx.recordWindows = ctx.recordWindows || ctx.traceSink != nullptr;
    if (ctx.isaRecorder)
        ctx.isaStreamLabel =
            system_.name + " on " + workload.dataset.name;

    sim::ScheduleRequest request;
    request.stageTimesNs = ctx.event.replicasAsServers
                               ? plan.serverStageTimesNs
                               : plan.stageTimesNs;
    request.replicas = plan.effectiveReplicas;
    request.totalMicroBatches = plan.totalMicroBatches;
    request.microBatchesPerBatch = system_.microBatchesPerBatch;
    switch (system_.pipelineMode) {
      case PipelineMode::Serial:
        request.regime = sim::Regime::Serial;
        break;
      case PipelineMode::IntraBatch:
        request.regime = sim::Regime::IntraBatch;
        break;
      case PipelineMode::IntraInterBatch:
        request.regime = sim::Regime::IntraInterBatch;
        break;
    }
    if (plan.faultOn && plan.repairPlan.refreshEveryMicroBatches > 0) {
        // Periodic re-program refresh steals pipeline cycles; both
        // engines execute the knobs (sim/context.hh).
        ctx.event.refreshEveryMicroBatches =
            plan.repairPlan.refreshEveryMicroBatches;
        ctx.event.refreshStallNs = plan.repairPlan.refreshStallNs;
    }

    const sim::ScheduleEngine &engine = sim::resolveEngine(ctx);
    const sim::StageTimeline schedule = engine.schedule(request, ctx);
    if (ctx.traceSink)
        ctx.traceSink->record(
            {system_.name, workload.dataset.name, engine.name()},
            plan.stages, schedule);

    // Allocation/fault observability. Everything recorded derives
    // from the (deterministic) run inputs, so exported counters are
    // identical for any harness worker count.
    if (ctx.metrics) {
        obs::MetricsRegistry &m = *ctx.metrics;
        m.counter("core.run.count").add();
        m.counter("alloc.crossbars_allocated")
            .add(plan.totalCrossbars);
        auto &replicasHist = m.histogram(
            "alloc.replicas_per_stage",
            obs::Histogram::exponentialBounds(1.0, 2.0, 12));
        for (uint32_t r : plan.replicas)
            replicasHist.observe(static_cast<double>(r));
        if (plan.faultOn) {
            m.counter("fault.run.count").add();
            m.histogram("fault.write_amplification",
                        obs::Histogram::linearBounds(1.0, 0.25, 13))
                .observe(plan.repairPlan.writeAmplification);
            if (plan.repairPlan.refreshEveryMicroBatches > 0)
                m.counter("fault.refreshes")
                    .add(plan.totalMicroBatches /
                         plan.repairPlan.refreshEveryMicroBatches);
        }
    }

    RunResult result;
    result.systemName = system_.name;
    result.datasetName = workload.dataset.name;
    result.makespanNs = schedule.makespanNs;
    result.replicas = plan.replicas;
    result.totalCrossbars = plan.totalCrossbars;
    result.stageCrossbars = plan.stageCrossbars;
    result.stageTimesNs = plan.stageTimesNs;
    result.idleFraction = schedule.idleFraction;
    result.avgIdleFraction = schedule.avgIdleFraction();
    result.engineName = engine.name();
    result.blockedNs = schedule.blockedNs;
    result.eventsProcessed = schedule.eventsProcessed;
    result.totalActivations = plan.totalActivations;
    result.totalRowWrites = plan.replicatedWrites;
    result.totalBufferBytes = plan.totalBufferBytes;
    result.stages = plan.stages;

    // Idle integral: allocated crossbars of each stage times the time
    // they spend waiting (makespan minus their busy time).
    double idleCrossbarNs = 0.0;
    for (size_t i = 0; i < numStages; ++i) {
        idleCrossbarNs += static_cast<double>(plan.stageCrossbars[i]) *
                          schedule.idleFraction[i] *
                          schedule.makespanNs;
    }
    result.energyPj = energyModel_.totalEnergyPj(
        schedule.makespanNs, plan.totalActivations,
        plan.replicatedWrites, plan.totalBufferBytes, idleCrossbarNs);

    if (plan.faultOn) {
        result.makespanNs += plan.repairPlan.remapStallNs;
        result.repairPolicy = plan.repairPlan.policy;
        result.rawFaultRate = plan.repairPlan.rawCellFaultRate;
        result.residualFaultRate =
            plan.repairPlan.residualCellFaultRate;
        result.wearLifetimeFraction = plan.wearLifetimeFraction;
        result.wornRowFraction = plan.wornRowFraction;
        result.writeAmplification =
            plan.repairPlan.writeAmplification;
        result.repairStallNs = plan.repairPlan.remapStallNs;
        result.writeExposure = plan.writeExposure;
    }
    return result;
}

} // namespace gopim::core
