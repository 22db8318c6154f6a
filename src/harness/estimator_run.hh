/**
 * @file
 * Orchestration of the estimator sampling policies (core/estimator.hh)
 * over the deferred measurement pipeline: the proxy-rank functional
 * pass, the two-phase pilot, the seeded selection, and the final
 * explicit-schedule measurement — composed so every run is bit-identical
 * across worker counts and direct-vs-store execution.
 *
 * Execution shape per policy kind:
 *
 *   uniform     one measurement pass over the regimen schedule —
 *               exactly runSampledParallel.
 *   ranked-set  draw budget*m candidate clusters, score them with one
 *               cheap proxy pass, select one order statistic per ranking
 *               set, measure only the selected subset.
 *   two-phase   draw budget*over candidates, stratify by proxy score,
 *               time a small pilot per stratum, Neyman-allocate the
 *               remaining budget, then measure the *union* schedule
 *               (pilot + extras) in a single final pass. The union
 *               design re-measures the pilot clusters — honestly counted
 *               in pilotMeasuredInsts — so the final estimate comes from
 *               one pass over one schedule, which is what makes store
 *               replay and jobs-count bit-identity trivial.
 *
 * Policies are constructed by name inside each pass (fresh warm-up state
 * per pass, the same contract as runPolicySweep and the campaign).
 */

#ifndef RSR_HARNESS_ESTIMATOR_RUN_HH
#define RSR_HARNESS_ESTIMATOR_RUN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/estimator.hh"
#include "core/livepoint_store.hh"
#include "core/sampled_sim.hh"

namespace rsr::harness
{

/** Everything an estimator run produces beyond a plain SampledResult. */
struct EstimatorRunResult
{
    /** The final measurement pass; its `estimate` is the estimator's
     *  (ranked-set / stratified / SRS) point estimate and CI. */
    core::SampledResult sampled;
    /** The clusters the final pass measured, sorted by start. */
    std::vector<core::Cluster> schedule;
    /** Estimator group per measured cluster (rank class / stratum). */
    std::vector<std::uint32_t> groups;
    /** Size of the candidate pool the selection drew from. */
    std::uint64_t candidateCount = 0;
    /** Instructions functionally executed by the proxy-rank pass. */
    std::uint64_t proxyInsts = 0;
    /** Timing-measured instructions spent on the two-phase pilot. */
    std::uint64_t pilotMeasuredInsts = 0;

    /** Total timing-measured instructions, pilot included — the honest
     *  denominator for accuracy-per-measured-instruction frontiers. */
    std::uint64_t
    measuredInsts() const
    {
        return sampled.hotInsts + pilotMeasuredInsts;
    }
};

/**
 * Run one estimator-policy sampled simulation of @p program under the
 * named Table-2 warm-up policy. config.regimen.numClusters is the
 * measurement budget (clusters actually timed in the final pass);
 * candidates are drawn from the same (scheduleSeed, clusterSize) stream
 * regardless of jobs. Deterministic in everything but wall-clock
 * fields: bit-identical across @p jobs.
 */
EstimatorRunResult runEstimator(const func::Program &program,
                                const std::string &policy_name,
                                const core::SampledConfig &config,
                                const core::EstimatorOptions &opts,
                                unsigned jobs);

/**
 * Producer: run the selection (proxy pass + pilot when two-phase) and
 * capture the final schedule into a live-point store annotated with the
 * estimator metadata. replayStoreParallel() then reproduces
 * runEstimator()'s estimate bit-identically with zero functional work —
 * minus the proxy and pilot costs, which the capture already paid.
 */
core::LivePointStore
captureEstimatorStore(const func::Program &program,
                      const std::string &policy_name,
                      const core::SampledConfig &config,
                      const core::EstimatorOptions &opts,
                      const std::string &workload_name,
                      core::SampledResult *front_half = nullptr);

/**
 * Size of the candidate pool an estimator run with measurement budget
 * @p budget (= regimen.numClusters) draws: uniform measures the budget
 * itself, ranked-set draws effective-budget * m, two-phase draws
 * budget * oversampling. Shared with replay-side staleness validation so
 * the expected configHash is computable from CLI flags alone.
 */
std::uint64_t estimatorCandidateCount(std::uint64_t budget,
                                      const core::EstimatorOptions &opts);

} // namespace rsr::harness

#endif // RSR_HARNESS_ESTIMATOR_RUN_HH
