/**
 * @file
 * The sampled-simulation controller: drives the hot/cold/warm execution
 * phases of Figure 1 over a workload. Between clusters the functional
 * simulator maintains architectural state while the active warm-up policy
 * observes every skipped instruction; at each cluster the out-of-order
 * timing model measures IPC against the persistent cache/branch-predictor
 * state. Also provides the full-trace (true IPC) reference run.
 */

#ifndef RSR_CORE_SAMPLED_SIM_HH
#define RSR_CORE_SAMPLED_SIM_HH

#include <cstdint>
#include <vector>

#include "core/machine.hh"
#include "core/regimen.hh"
#include "core/statistics.hh"
#include "core/warmup.hh"
#include "func/program.hh"
#include "uarch/core.hh"
#include "util/deadline.hh"

namespace rsr::core
{

/** Configuration of one sampled run. */
struct SampledConfig
{
    SamplingRegimen regimen{50, 2000};
    /** Population: the first totalInsts instructions of the workload. */
    std::uint64_t totalInsts = 3'000'000;
    /** Seed for cluster placement (fixed across methods to hold sampling
     *  bias constant, as the paper does). */
    std::uint64_t scheduleSeed = 0x5eed;
    MachineConfig machine = MachineConfig::paperDefault();
    /**
     * Optional cooperative watchdog: polled at cluster boundaries and
     * periodically inside skips; TimeoutError is thrown when it expires
     * (not owned; must outlive the run).
     */
    const Deadline *deadline = nullptr;
    /**
     * When non-empty, measure exactly these clusters instead of drawing
     * a schedule from (regimen, scheduleSeed). Clusters must be sorted
     * by start and non-overlapping within totalInsts; everything between
     * them is a skip region under the active warm-up policy — so a
     * subset of a candidate schedule executes with canonical warming
     * semantics (unselected candidates become part of the skips).
     * Estimator policies (core/estimator.hh) use this to measure only
     * the clusters their selection plan chose.
     */
    std::vector<Cluster> explicitSchedule;
};

/**
 * Per-phase observability counters: how much wall time the skip
 * (functional fast-forward), reconstruct (warm-up at the cluster
 * boundary), capture and measure (cycle-accurate cluster) phases
 * consumed, plus the snapshot footprint when a live-point store captures
 * clusters. The instructions each phase covered are
 * SampledResult::skippedInsts and ::hotInsts.
 */
struct PhaseCounters
{
    /** Wall time in the skip phase (includes policy logging/warming). */
    double skipSeconds = 0.0;
    /** Wall time in the reconstruct phase (policy beforeCluster work). */
    double reconstructSeconds = 0.0;
    /** Wall time copying the warm machine + recording cluster traces. */
    double captureSeconds = 0.0;
    /** Wall time in the measure phase (sums worker time when parallel). */
    double measureSeconds = 0.0;
    /** Largest machine snapshot a store capture serialized, in bytes
     *  (0 for in-process runs, which serialize nothing). */
    std::uint64_t peakSnapshotBytes = 0;
};

/** Everything measured from one sampled run. */
struct SampledResult
{
    std::vector<double> clusterIpc;
    ClusterEstimate estimate;
    /** Total cycles across all measured clusters. */
    std::uint64_t hotCycles = 0;

    /** Pooled estimate hotInsts / hotCycles (ratio estimator). */
    double
    aggregateIpc() const
    {
        return hotCycles ? static_cast<double>(hotInsts) / hotCycles : 0.0;
    }
    /** Wall-clock seconds for the whole sampled simulation. */
    double seconds = 0.0;
    WarmupWork warmWork;
    /** Instructions measured by the timing model. */
    std::uint64_t hotInsts = 0;
    /** Instructions functionally executed across all skip regions. */
    std::uint64_t skippedInsts = 0;
    std::uint64_t branchMispredicts = 0;
    PhaseCounters phases;
};

/**
 * Run one sampled simulation of @p program under @p policy: the deferred
 * front half of core/phase_driver.hh, with each cluster's timing replay
 * run on the calling thread as soon as it is captured.
 */
SampledResult runSampled(const func::Program &program, WarmupPolicy &policy,
                         const SampledConfig &config);

/** Result of a full-trace reference simulation. */
struct FullRunResult
{
    uarch::RunResult timing;
    double seconds = 0.0;
    double ipc() const { return timing.ipc(); }
};

/** Cycle-accurate simulation of the first @p total_insts instructions. */
FullRunResult runFull(const func::Program &program,
                      std::uint64_t total_insts,
                      const MachineConfig &machine_config);

} // namespace rsr::core

#endif // RSR_CORE_SAMPLED_SIM_HH
