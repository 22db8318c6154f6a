/**
 * @file
 * Parallel sampled simulation on top of the phase driver's deferred mode:
 * the functional front half (skip + warm-up + snapshot + trace capture)
 * runs on the calling thread, and the cycle-accurate timing replay of
 * each cluster runs on a ThreadPool worker against a private machine
 * restored from the cluster's snapshot. Statistics are merged in schedule
 * order, so the result is bit-identical for any worker count — including
 * jobs == 1, which is core::runSampled(): the same deferred pipeline,
 * replayed serially on the calling thread.
 */

#ifndef RSR_HARNESS_PARALLEL_RUN_HH
#define RSR_HARNESS_PARALLEL_RUN_HH

#include <string>
#include <vector>

#include "core/livepoint_store.hh"
#include "core/sampled_sim.hh"
#include "core/warmup.hh"

namespace rsr::harness
{

/**
 * Run one sampled simulation with per-cluster timing replays spread over
 * @p jobs worker threads (1 = serial, same estimator). The result's
 * clusterIpc / estimate / hot counters are deterministic in @p jobs.
 */
core::SampledResult runSampledParallel(const func::Program &program,
                                       core::WarmupPolicy &policy,
                                       const core::SampledConfig &config,
                                       unsigned jobs);

/**
 * Consumer pass over a live-point store — the one store replay entry:
 * measure every stored cluster under @p machine_config on @p jobs
 * ThreadPool workers, out of order — zero functional simulation. Each
 * worker decodes its own blobs (makeReplayTask is const/thread-safe),
 * so decode parallelizes with the timing replay. Statistics merge in
 * schedule order, and the estimate is the one the store's capture-time
 * estimator calls for (core::estimateFor over the stored groups; the
 * plain cluster estimate for uniform stores). The result is
 * bit-identical to the direct `runSampledParallel` / `runEstimator` run
 * that the capture mirrors, for any worker count.
 */
core::SampledResult replayStoreParallel(const core::LivePointStore &store,
                                        const core::MachineConfig &machine_config,
                                        unsigned jobs);

/** Replay with the store's capture-time machine configuration. */
core::SampledResult replayStoreParallel(const core::LivePointStore &store,
                                        unsigned jobs);

/** One policy's outcome in a sweep. */
struct PolicySweepEntry
{
    std::string cliName;       ///< the name the sweep was asked for
    std::string displayName;   ///< the policy's paper-style label
    core::SampledResult result;
};

/**
 * Evaluate several warm-up policies over the same workload and schedule,
 * one pool task per policy (each task replays its clusters serially —
 * policy-level parallelism scales better than cluster-level for sweeps).
 * Results come back in the order of @p policy_names; unknown names throw
 * UserInputError before any work starts.
 */
std::vector<PolicySweepEntry>
runPolicySweep(const func::Program &program,
               const std::vector<std::string> &policy_names,
               const core::SampledConfig &config, unsigned jobs);

} // namespace rsr::harness

#endif // RSR_HARNESS_PARALLEL_RUN_HH
