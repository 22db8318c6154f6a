/**
 * @file
 * The phase driver: one controller for the hot/cold/warm loop of the
 * paper's Figure 1, decomposed into explicit phase objects —
 *
 *   SkipPhase        functional fast-forward between clusters, feeding
 *                    the warm-up policy and polling the watchdog;
 *   ReconstructPhase the policy's cluster-boundary warm-up work (cache
 *                    reconstruction, log finalization);
 *   CapturePhase     the warm machine copy, measurement context and
 *                    committed trace of one cluster.
 *
 * ClusterScheduleDriver::runDeferred() composes them into the front half
 * of every sampled run: each cluster is emitted as a ClusterReplayTask,
 * and a ReplayLedger measures it on the cycle-accurate timing model
 * against the warmed machine the task carries by value — inline in
 * core::runSampled() or on pool workers in harness/parallel_run.hh — or
 * against one restored from snapshot bytes, later, from a live-point
 * store. While the trace is recorded, the shared
 * machine receives the cluster's state effects *functionally*
 * (commit-order warm accesses), so there is one estimator: the result
 * does not depend on where, when, or on how many threads the timing
 * replays run.
 */

#ifndef RSR_CORE_PHASE_DRIVER_HH
#define RSR_CORE_PHASE_DRIVER_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/sampled_sim.hh"
#include "func/funcsim.hh"

namespace rsr::core
{

/** Streams committed instructions from the functional simulator. */
class FuncSource : public uarch::InstSource
{
  public:
    explicit FuncSource(func::FuncSim &fs) : fs(fs) {}

    bool
    next(func::DynInst &out) override
    {
        return fs.step(&out);
    }

  private:
    func::FuncSim &fs;
};

/** Streams a stored committed-instruction trace. */
class TraceSource : public uarch::InstSource
{
  public:
    explicit TraceSource(const std::vector<func::DynInst> &trace)
        : trace(trace)
    {}

    bool
    next(func::DynInst &out) override
    {
        if (pos >= trace.size())
            return false;
        out = trace[pos++];
        return true;
    }

  private:
    const std::vector<func::DynInst> &trace;
    std::size_t pos = 0;
};

/**
 * Everything needed to measure one cluster away from the shared machine:
 * the warm state, the committed trace, and the policy's measurement-time
 * context (on-demand reconstruction state). Produced by
 * ClusterScheduleDriver::runDeferred() or a live-point store, consumed by
 * replayCluster().
 *
 * The warm state travels in one of two forms. In process it is the
 * machine itself (Machine::warmCopy()), so nothing is serialized; bytes
 * exist only where a store is written or read.
 */
struct ClusterReplayTask
{
    std::size_t index = 0;
    Cluster cluster;
    /** The warmed machine by value (the in-process form). */
    std::optional<Machine> machine;
    /** The warmed machine as snapshot bytes (the store form); replay
     *  reads these only when @c machine is empty. */
    std::vector<std::uint8_t> machineState;
    std::vector<func::DynInst> trace;
    std::unique_ptr<MeasureContext> context;
};

/** Receives replay tasks as the deferred front half produces them. */
class ReplaySink
{
  public:
    virtual ~ReplaySink() = default;
    virtual void onCluster(ClusterReplayTask task) = 0;
};

/**
 * Functional fast-forward over one skip region: steps the functional
 * simulator, detects new fetch blocks for the policy, polls the
 * cooperative deadline, and accounts skip time into PhaseCounters.
 */
class SkipPhase
{
  public:
    SkipPhase(func::FuncSim &fs, WarmupPolicy &policy,
              const Deadline *deadline, std::uint64_t iline_mask,
              PhaseCounters &counters)
        : fs(fs), policy(policy), deadline(deadline),
          ilineMask(iline_mask), counters(counters)
    {}

    /** Skip @p skip_len instructions; throws TimeoutError on expiry. */
    void run(std::uint64_t skip_len);

  private:
    func::FuncSim &fs;
    WarmupPolicy &policy;
    const Deadline *deadline;
    std::uint64_t ilineMask;
    PhaseCounters &counters;
};

/** Cluster-boundary warm-up: times the policy's beforeCluster() work. */
class ReconstructPhase
{
  public:
    ReconstructPhase(WarmupPolicy &policy, PhaseCounters &counters)
        : policy(policy), counters(counters)
    {}

    void run();

  private:
    WarmupPolicy &policy;
    PhaseCounters &counters;
};

/**
 * Warm-state capture at one cluster boundary — the producer half of the
 * live-point split. Runs after ReconstructPhase (warm-up applied, the
 * machine is exactly the state a timed cluster would start from) and
 * packages everything a later timing replay needs: a warm copy of the
 * machine, the policy's measurement context, and the cluster's
 * committed trace.
 * While the trace is recorded, the shared machine receives the cluster's
 * state effects *functionally* in commit order, so the following skip
 * region starts from hot state no matter where or when the timing replay
 * runs. Used by runDeferred().
 */
class CapturePhase
{
  public:
    CapturePhase(func::FuncSim &fs, WarmupPolicy &policy, Machine &machine,
                 std::uint64_t iline_mask, PhaseCounters &counters)
        : fs(fs), policy(policy), machine(machine),
          ilineMask(iline_mask), counters(counters)
    {}

    /**
     * Capture cluster @p cluster (schedule position @p index), carrying
     * the warmed machine by value.
     */
    ClusterReplayTask take(std::size_t index, const Cluster &cluster);

    /**
     * take(), then the machine as snapshot bytes in
     * ClusterReplayTask::machineState. No library path calls it: it
     * keeps the byte form for out-of-tree callers that restore the
     * bytes themselves.
     */
    ClusterReplayTask run(std::size_t index, const Cluster &cluster);

  private:
    func::FuncSim &fs;
    WarmupPolicy &policy;
    Machine &machine;
    std::uint64_t ilineMask;
    PhaseCounters &counters;
};

/** Drives the phases over a whole cluster schedule (single-use). */
class ClusterScheduleDriver
{
  public:
    ClusterScheduleDriver(const func::Program &program,
                          WarmupPolicy &policy,
                          const SampledConfig &config);

    const std::vector<Cluster> &schedule() const { return schedule_; }

    /**
     * Deferred front half: skip + reconstruct + copy + record each
     * cluster, emitting ClusterReplayTasks to @p sink in schedule order.
     * The returned result carries the front-half accounting (skipped
     * instructions, warm work, phase counters); ReplayLedger::fold()
     * adds the per-cluster timing.
     */
    SampledResult runDeferred(ReplaySink &sink);

  private:
    const func::Program &program;
    WarmupPolicy &policy;
    const SampledConfig &config;
    std::vector<Cluster> schedule_;
};

/**
 * Cheap per-cluster proxy IPC from one functional pass (the ranked-set /
 * two-phase proxy rank of core/estimator.hh). The pass drives two tiny
 * deterministic models — a direct-mapped 512-set x 64-byte-line tag
 * array probed by instruction lines and data accesses, and a 4096-entry
 * 2-bit bimodal predictor for conditional branches — continuously over
 * the population (so cluster-local counts see warmed proxy state), and
 * scores each candidate cluster as
 *
 *     insts / (insts + 18 * tagMisses + 10 * mispredicts),
 *
 * a crude latency-weighted IPC whose *ordering* across clusters is all
 * the estimators consume. Candidates must be sorted and non-overlapping;
 * the pass stops after the last candidate ends. Costs one functional
 * simulation of the covered prefix — orders of magnitude cheaper than a
 * timing measurement, which is the whole point of ranking by proxy.
 * Polls @p deadline like SkipPhase (TimeoutError on expiry).
 */
std::vector<double>
profileClusterProxies(const func::Program &program,
                      const std::vector<Cluster> &candidates,
                      const Deadline *deadline = nullptr);

/**
 * A thread-private machine reused across cluster replays. Building a
 * Machine allocates every cache array and predictor table; doing that
 * per store cluster on every worker makes replay a global-heap
 * contention benchmark instead of a simulation. One arena per replaying
 * thread amortizes the allocation (a by-value task was allocated once,
 * by the producer's copy). load() overwrites the arena machine with a
 * task's warm state in one of two ways: a by-value machine
 * (Machine::warmCopy()) is moved in whole, its arrays replacing the
 * arena's; snapshot bytes are restored in place (Machine::restore covers
 * the whole hierarchy and predictor state), then
 * Machine::clearTransientState() clears what the bytes leave out. Either
 * way a reused machine is bit-identical to a fresh one.
 */
class ReplayArena
{
  public:
    ReplayArena() = default;

    /** The arena machine for @p machine_config, built on first use. */
    Machine &acquire(const MachineConfig &machine_config);

    /**
     * Load @p task's warm state as the arena machine: move its machine
     * in (leaving the task without one), or restore its snapshot bytes
     * into the machine for @p machine_config. Throws CorruptInputError
     * on bytes that do not restore.
     */
    Machine &load(ClusterReplayTask &task,
                  const MachineConfig &machine_config);

  private:
    std::unique_ptr<Machine> machine;
};

/**
 * Measure one deferred cluster on @p arena's machine: load the task's
 * warm state (move in its machine, or restore its snapshot bytes when it
 * carries none), attach the measurement context, run the timing model
 * over the stored trace. This is the entry that bypasses SkipPhase
 * entirely — the task already holds the warmed state a skip would have
 * produced — so a stored ClusterReplayTask (e.g. from a live-point
 * store) replays with zero functional simulation. A by-value task
 * replays once: its machine is moved out. The arena must be private to
 * the calling thread; replays share nothing else mutable.
 *
 * @param recon_updates receives the context's on-demand reconstruction
 *        work (0 when the task has no context); may be null.
 * @param seconds receives the wall time of this replay; may be null.
 */
uarch::RunResult replayCluster(ClusterReplayTask &task,
                               const MachineConfig &machine_config,
                               ReplayArena &arena,
                               std::uint64_t *recon_updates = nullptr,
                               double *seconds = nullptr);

/**
 * The replay ledger: the one place a sampled run measures its clusters
 * and accounts for them. Each lane owns a ReplayArena; replay() measures
 * a task on its lane's arena and commits the cluster's whole outcome
 * into a cache-line-padded slot keyed by the task's schedule index,
 * never by completion order. fold() walks the slots in index order on
 * one thread, so the result does not depend on which lane replayed
 * which cluster, or when.
 *
 * core::runSampled() feeds the ledger inline on lane 0 (it is itself a
 * ReplaySink); harness/parallel_run.hh replays on pool workers with
 * lane = ThreadPool::workerIndex(). Distinct lanes may replay
 * concurrently; one lane must not, and every slot is written once.
 */
class ReplayLedger : public ReplaySink
{
  public:
    /** @p machine must outlive the ledger. */
    ReplayLedger(std::size_t clusters, unsigned lanes,
                 const MachineConfig &machine);
    ReplayLedger(const ReplayLedger &) = delete;
    ReplayLedger &operator=(const ReplayLedger &) = delete;

    /** Measure @p task on @p lane's arena and commit its slot. */
    void replay(ClusterReplayTask &task, std::size_t lane);

    /** Inline consumer of the deferred front half: replay on lane 0. */
    void
    onCluster(ClusterReplayTask task) override
    {
        replay(task, 0);
    }

    /**
     * Fold the slots, in schedule-index order, into @p res: per-cluster
     * IPC, the hot and measure-phase counters, the reconstruction work,
     * and the uniform cluster estimate. Returns the replays' on-demand
     * reconstruction updates (already added to res.warmWork).
     */
    std::uint64_t fold(SampledResult &res) const;

  private:
    struct alignas(64) Slot
    {
        double ipc = 0.0;
        std::uint64_t insts = 0;
        std::uint64_t cycles = 0;
        std::uint64_t branchMispredicts = 0;
        std::uint64_t reconUpdates = 0;
        double seconds = 0.0;
    };

    const MachineConfig &machine;
    std::vector<Slot> slots;
    std::vector<ReplayArena> arenas;
};

} // namespace rsr::core

#endif // RSR_CORE_PHASE_DRIVER_HH
