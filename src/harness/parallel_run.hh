/**
 * @file
 * Sampled simulation on a ThreadPool, on top of the phase driver's one
 * pipeline (core/phase_driver.hh): the calling thread runs the
 * functional pass (RegionProducer), and each policy's RegionConsumer
 * warms its machine from the region log, copies it onto the running
 * thread's replay arena and measures the cluster there on the
 * cycle-accurate timing model. Consumer tasks run on the pool workers
 * and, whenever the producer would wait (for a free region buffer, or
 * for the last clusters), on the calling thread. A policy's next region
 * warms while its last cluster is measured. Statistics are merged in
 * schedule order, so the result is bit-identical for any worker count —
 * including jobs == 1 in runSampledParallel, which is core::runSampled():
 * the same producer and consumer, alternating on the calling thread.
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
 * Run one sampled simulation with its warm-up and per-cluster timing
 * measurements on @p jobs worker threads — runPolicySweep's pipeline
 * with one policy (1 = core::runSampled, same estimator). The result's
 * clusterIpc / estimate / hot counters are deterministic in @p jobs.
 */
core::SampledResult runSampledParallel(const func::Program &program,
                                       core::WarmupPolicy &policy,
                                       const core::SampledConfig &config,
                                       unsigned jobs);

/**
 * Consumer pass over a live-point store — the one store replay entry:
 * measure every stored cluster under @p machine_config, out of order —
 * zero functional simulation. At @p jobs <= 1 the calling thread
 * replays every cluster inline, with no pool; otherwise @p jobs pool
 * workers and the calling thread are the lanes. Each lane pulls the
 * next cluster index from one shared counter, decodes that cluster's
 * blobs itself (makeReplayTask is const/thread-safe), so decode
 * parallelizes with the timing replay, and measures it on its own
 * replay arena. A lane's exception stops the others at their next pull
 * and is rethrown once every lane has stopped. Statistics merge in
 * schedule order, and the estimate is the one the store's capture-time
 * estimator calls for (core::estimateFor over the stored groups; the
 * plain cluster estimate for uniform stores). The result is
 * bit-identical to the direct `runSampledParallel` / `runEstimator` run
 * that the capture mirrors, for any @p jobs, including a call from
 * inside another pool's task.
 */
core::SampledResult replayStoreParallel(const core::LivePointStore &store,
                                        const core::MachineConfig &machine_config,
                                        unsigned jobs);

/** Replay with the store's capture-time machine configuration. */
core::SampledResult replayStoreParallel(const core::LivePointStore &store,
                                        unsigned jobs);

/**
 * One policy's outcome in a sweep. Every field but the wall-clock ones
 * is bit-identical to the policy's solo run. `result.seconds` is the
 * policy's own wall time (its prepare() and its consumer tasks) plus 1/N
 * of the shared producer's, for N policies, so the entries sum to the
 * sweep's total work; the skip and capture phase times split the
 * producer's the same way.
 */
struct PolicySweepEntry
{
    std::string cliName;       ///< the name the sweep was asked for
    std::string displayName;   ///< the policy's paper-style label
    core::SampledResult result;
    /** The shared producer's whole wall time (skip + capture), the same
     *  in every entry of a sweep. */
    double producerSeconds = 0.0;
};

/**
 * Evaluate several warm-up policies over the same workload and schedule
 * with one functional pass: the calling thread steps the program once,
 * logging each skip region as `rsr100` does and recording each cluster's
 * trace (core::RegionProducer), and one core::RegionConsumer per policy
 * warms its own machine from that log and measures the cluster, as
 * tasks on @p jobs pool workers and on the calling thread, which runs
 * queued tasks whenever it would otherwise wait. The pipeline buffers
 * max(2, 1 + ceil((jobs + 1) / policies)) regions: 2 for a sweep whose
 * policies outnumber its threads, one per thread plus one for a solo
 * run.
 * Results come back in the order of @p policy_names; unknown names throw
 * UserError before any work starts, and a deadline that expires throws
 * TimeoutError with no task left running.
 */
std::vector<PolicySweepEntry>
runPolicySweep(const func::Program &program,
               const std::vector<std::string> &policy_names,
               const core::SampledConfig &config, unsigned jobs);

/** runPolicySweep over policies the caller built and owns; each entry's
 *  cliName is the policy's name(). */
std::vector<PolicySweepEntry>
sweepPolicies(const func::Program &program,
              const std::vector<core::WarmupPolicy *> &policies,
              const core::SampledConfig &config, unsigned jobs);

} // namespace rsr::harness

#endif // RSR_HARNESS_PARALLEL_RUN_HH
