#include "estimator_run.hh"

#include <algorithm>
#include <cmath>

#include "core/phase_driver.hh"
#include "core/warmup.hh"
#include "harness/parallel_run.hh"
#include "simpoint/proxy.hh"
#include "util/error.hh"

namespace rsr::harness
{

namespace
{

/** Everything the selection stage decides before the final pass. */
struct Selection
{
    std::vector<core::Cluster> candidates;
    core::SelectionPlan plan;
    std::uint64_t proxyInsts = 0;
    std::uint64_t pilotMeasuredInsts = 0;
};

/**
 * Draw the candidate cluster pool from the same (scheduleSeed,
 * clusterSize) stream the uniform policy uses, just with more clusters —
 * so at equal seeds, every estimator ranks over placements drawn from
 * the identical uniform process.
 */
std::vector<core::Cluster>
drawCandidates(const core::SampledConfig &config, std::uint64_t count)
{
    const core::SamplingRegimen regimen{count, config.regimen.clusterSize};
    if (regimen.sampledInsts() > config.totalInsts)
        rsr_throw_user("estimator candidate pool of ", count,
                       " clusters x ", config.regimen.clusterSize,
                       " insts exceeds the population of ",
                       config.totalInsts,
                       " — lower --clusters or --set-size, or raise "
                       "--insts");
    Rng rng(config.scheduleSeed);
    return core::makeSchedule(regimen, config.totalInsts, rng);
}

std::vector<double>
proxyScores(const func::Program &program,
            const std::vector<core::Cluster> &candidates,
            const core::EstimatorOptions &opts, const Deadline *deadline)
{
    if (opts.proxy == core::ProxyKind::FuncIpc)
        return core::profileClusterProxies(program, candidates, deadline);
    return simpoint::bbvCentroidDistance(program, candidates, deadline);
}

/** One measurement pass over an explicit schedule, fresh policy. */
core::SampledResult
measureSchedule(const func::Program &program,
                const std::string &policy_name,
                const core::SampledConfig &config,
                std::vector<core::Cluster> schedule, unsigned jobs)
{
    core::SampledConfig cfg = config;
    cfg.explicitSchedule = std::move(schedule);
    const auto policy = core::makePolicyByName(policy_name);
    return runSampledParallel(program, *policy, cfg, jobs);
}

Selection
selectRankedSet(const func::Program &program,
                const core::SampledConfig &config,
                const core::EstimatorOptions &opts)
{
    const std::uint64_t budget =
        core::effectiveRankedSetBudget(config.regimen.numClusters, opts);
    Selection sel;
    sel.candidates = drawCandidates(
        config, estimatorCandidateCount(config.regimen.numClusters, opts));
    const std::vector<double> scores =
        proxyScores(program, sel.candidates, opts, config.deadline);
    sel.proxyInsts =
        sel.candidates.back().start + sel.candidates.back().size;
    sel.plan = core::rankedSetSelect(scores, budget, opts);
    return sel;
}

/**
 * The two-phase selection: stratify, time the pilot, Neyman-allocate
 * what is left of the budget, and return the union plan. The pilot is
 * the only stage here that runs the timing model — its cost is carried
 * in pilotMeasuredInsts so frontier accounting can charge it.
 */
Selection
selectTwoPhase(const func::Program &program,
               const std::string &policy_name,
               const core::SampledConfig &config,
               const core::EstimatorOptions &opts, unsigned jobs)
{
    const std::uint64_t budget = config.regimen.numClusters;
    Selection sel;
    sel.candidates =
        drawCandidates(config, estimatorCandidateCount(budget, opts));
    const std::vector<double> scores =
        proxyScores(program, sel.candidates, opts, config.deadline);
    sel.proxyInsts =
        sel.candidates.back().start + sel.candidates.back().size;

    const core::StrataPlan strata =
        core::stratifyByScore(scores, opts.strata);
    const core::SelectionPlan pilot = core::pilotSelect(
        strata, opts.phase1PerStratum, opts.rankSeed);
    if (pilot.chosen.size() > budget)
        rsr_throw_user("two-phase pilot needs ", pilot.chosen.size(),
                       " measurements (", strata.stratumSize.size(),
                       " strata x ", opts.phase1PerStratum,
                       " each) but the budget is only ", budget,
                       " clusters — lower --strata/--phase1 or raise "
                       "--clusters");

    // Phase 1: time the pilot clusters. Bit-identical across jobs, so
    // the allocation below — and therefore the final schedule — is too.
    const core::SampledResult pilot_res = measureSchedule(
        program, policy_name, config,
        core::subsetSchedule(sel.candidates, pilot.chosen), jobs);
    sel.pilotMeasuredInsts = pilot_res.hotInsts;

    const std::size_t h_count = strata.stratumSize.size();
    std::vector<core::RunningMoments> pilot_moments(h_count);
    for (std::size_t i = 0; i < pilot.chosen.size(); ++i)
        pilot_moments[pilot.group[i]].add(pilot_res.clusterIpc[i]);
    std::vector<double> sigma(h_count, 0.0);
    std::vector<std::uint64_t> cap(h_count, 0);
    for (std::size_t h = 0; h < h_count; ++h) {
        sigma[h] = std::sqrt(pilot_moments[h].variance());
        cap[h] = strata.stratumSize[h] - pilot_moments[h].n;
    }

    const std::vector<std::uint64_t> extra = core::allocateNeyman(
        sigma, strata.stratumSize, cap,
        budget - pilot.chosen.size());
    sel.plan =
        core::finalStratifiedSelect(strata, pilot, extra, opts.rankSeed);
    return sel;
}

Selection
selectFor(const func::Program &program, const std::string &policy_name,
          const core::SampledConfig &config,
          const core::EstimatorOptions &opts, unsigned jobs)
{
    if (opts.kind == core::SamplingPolicyKind::RankedSet)
        return selectRankedSet(program, config, opts);
    return selectTwoPhase(program, policy_name, config, opts, jobs);
}

} // namespace

std::uint64_t
estimatorCandidateCount(std::uint64_t budget,
                        const core::EstimatorOptions &opts)
{
    switch (opts.kind) {
      case core::SamplingPolicyKind::UniformCluster:
        return budget;
      case core::SamplingPolicyKind::RankedSet:
        return core::effectiveRankedSetBudget(budget, opts) * opts.setSize;
      case core::SamplingPolicyKind::TwoPhaseStratified:
        return budget * std::max<std::uint64_t>(opts.setSize, 1);
    }
    rsr_throw_internal("unknown SamplingPolicyKind ",
                       static_cast<int>(opts.kind));
}

EstimatorRunResult
runEstimator(const func::Program &program, const std::string &policy_name,
             const core::SampledConfig &config,
             const core::EstimatorOptions &opts, unsigned jobs)
{
    EstimatorRunResult out;
    if (opts.kind == core::SamplingPolicyKind::UniformCluster) {
        Rng rng(config.scheduleSeed);
        out.schedule = config.explicitSchedule.empty()
                           ? core::makeSchedule(config.regimen,
                                                config.totalInsts, rng)
                           : config.explicitSchedule;
        out.groups.assign(out.schedule.size(), 0);
        out.candidateCount = out.schedule.size();
    } else {
        Selection sel = selectFor(program, policy_name, config, opts, jobs);
        out.schedule =
            core::subsetSchedule(sel.candidates, sel.plan.chosen);
        out.groups = sel.plan.group;
        out.candidateCount = sel.candidates.size();
        out.proxyInsts = sel.proxyInsts;
        out.pilotMeasuredInsts = sel.pilotMeasuredInsts;
    }

    out.sampled = measureSchedule(program, policy_name, config,
                                  out.schedule, jobs);
    out.sampled.estimate = core::estimateFor(
        opts, out.candidateCount, out.sampled.clusterIpc, out.groups);
    return out;
}

core::LivePointStore
captureEstimatorStore(const func::Program &program,
                      const std::string &policy_name,
                      const core::SampledConfig &config,
                      const core::EstimatorOptions &opts,
                      const std::string &workload_name,
                      core::SampledResult *front_half)
{
    const auto policy = core::makePolicyByName(policy_name);
    if (opts.kind == core::SamplingPolicyKind::UniformCluster)
        return core::LivePointStore::create(program, *policy, config,
                                            workload_name, policy_name,
                                            front_half);

    // The capture's selection runs serially: the store must not depend
    // on the producer's thread count, and the pilot is already
    // bit-identical at any jobs value anyway.
    Selection sel =
        selectFor(program, policy_name, config, opts, /*jobs=*/1);

    core::SampledConfig cfg = config;
    cfg.explicitSchedule =
        core::subsetSchedule(sel.candidates, sel.plan.chosen);

    core::LivePointStore::CaptureAnnotations notes;
    notes.estimator = opts;
    notes.candidateCount = sel.candidates.size();
    notes.groups = sel.plan.group;
    return core::LivePointStore::create(program, *policy, cfg,
                                        workload_name, policy_name,
                                        front_half, &notes);
}

} // namespace rsr::harness
