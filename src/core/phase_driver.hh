/**
 * @file
 * The phase driver: one front half for the hot/cold/warm loop of the
 * paper's Figure 1, split by what each step depends on.
 *
 *   RegionProducer   what the program did, whatever the warm-up policy:
 *                    one functional pass over the schedule that logs each
 *                    skip region as `rsr100` logs it and records the
 *                    cluster's committed trace (a RegionLog), polling the
 *                    watchdog;
 *   RegionConsumer   what one policy does with it: warm its machine from
 *                    the log (WarmupPolicy::consumeRegion), run the
 *                    cluster-boundary work (ReconstructPhase), and capture
 *                    the cluster — the warm machine, the measurement
 *                    context and the trace.
 *
 * Every sampled run is one producer and one consumer per policy.
 * ClusterScheduleDriver::runDeferred() alternates one of each on the
 * calling thread and emits each cluster as a ClusterReplayTask; a
 * ReplayLedger measures it on the cycle-accurate timing model against the
 * warmed machine the task carries by value — inline in core::runSampled()
 * or on pool workers in harness/parallel_run.hh — or a live-point store
 * keeps it and measures it later from snapshot bytes. A policy sweep
 * (harness::runPolicySweep) runs one producer for many consumers, each
 * measuring on a replay arena. While a cluster is captured, the
 * consumer's own machine receives the cluster's state effects
 * *functionally* (commit-order warm accesses), so there is one estimator:
 * the result depends neither on where, when, or on how many threads the
 * timing replays run, nor on how many policies share the pass.
 *
 * SkipPhase, ReconstructPhase and CapturePhase expose the same steps one
 * at a time over a caller's functional simulator, for callers that time
 * each step themselves (perfbench's traced replica).
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
 * Functional fast-forward over one skip region for one policy: steps the
 * caller's functional simulator with the producer's logging loop from
 * the policy's observeFrom() on, hands the log to the policy's
 * consumeRegion(), polls the cooperative deadline, and accounts skip
 * time into PhaseCounters. The log lives until the next run().
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
    std::size_t region = 0;
    SkipLog log;
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
 * Warm-state capture at one cluster boundary, after SkipPhase and
 * ReconstructPhase, in the store's byte form: the warmed machine as
 * snapshot bytes, the policy's measurement context, and the cluster's
 * committed trace, stepped from the caller's functional simulator. The
 * context owns a copy of its branch records, so the task may be replayed
 * while the next region is logged. The shared machine then receives the
 * cluster's state effects functionally, as RegionConsumer's does.
 */
class CapturePhase
{
  public:
    CapturePhase(func::FuncSim &fs, WarmupPolicy &policy, Machine &machine,
                 std::uint64_t iline_mask, PhaseCounters &counters)
        : fs(fs), policy(policy), machine(machine),
          ilineMask(iline_mask), counters(counters)
    {}

    /** Capture cluster @p cluster (schedule position @p index). */
    ClusterReplayTask run(std::size_t index, const Cluster &cluster);

  private:
    func::FuncSim &fs;
    WarmupPolicy &policy;
    Machine &machine;
    std::uint64_t ilineMask;
    PhaseCounters &counters;
};

/** The clusters @p config measures: its explicit schedule, validated, or
 *  one drawn from its regimen and schedule seed. */
std::vector<Cluster> scheduleFor(const SampledConfig &config);

/** Drives the phases over a whole cluster schedule (single-use). */
class ClusterScheduleDriver
{
  public:
    ClusterScheduleDriver(const func::Program &program,
                          WarmupPolicy &policy,
                          const SampledConfig &config);

    const std::vector<Cluster> &schedule() const { return schedule_; }

    /**
     * Deferred front half: one RegionProducer and one RegionConsumer,
     * alternating on the calling thread, emit each cluster's
     * ClusterReplayTask to @p sink in schedule order. The returned result
     * carries the front-half accounting (skipped instructions, warm work,
     * phase counters); ReplayLedger::fold() adds the per-cluster timing.
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
 * Polls @p deadline like the skip loop (TimeoutError on expiry).
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

    /** Load Machine::warmCopy() of @p warm as the arena machine, copying
     *  into its arrays. */
    Machine &copy(const Machine &warm);

  private:
    std::unique_ptr<Machine> machine;
};

/**
 * Measure one deferred cluster on @p arena's machine: load the task's
 * warm state (move in its machine, or restore its snapshot bytes when it
 * carries none), attach the measurement context, run the timing model
 * over the stored trace. This is the entry that bypasses the functional
 * pass entirely — the task already holds the warmed state a skip would have
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

    /** Commit cluster @p index's measurement, taken elsewhere. */
    void commit(std::size_t index, const uarch::RunResult &rr,
                std::uint64_t recon_updates, double seconds);

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

/**
 * One region of the front half's functional pass: the skip region before
 * a cluster, logged as `rsr100` logs it from the first instruction any
 * consumer observes, each consumer's cursor into that log, and the
 * cluster's committed trace.
 */
struct RegionLog
{
    /** Schedule position of the cluster that ends the region. */
    std::size_t index = 0;
    Cluster cluster;
    std::uint64_t skipLen = 0;
    SkipLog log;
    /** Per consumer: the log position at its observeFrom(). */
    std::vector<LogCursor> cursors;
    std::vector<func::DynInst> trace;
};

/**
 * The functional pass of a sampled run: one pass over @p schedule, one
 * RegionLog per cluster, for one or more consumers. It logs the memory
 * references if any consumer warms caches and the branches if any warms
 * the branch unit, and polls the deadline.
 */
class RegionProducer
{
  public:
    /** @p schedule and @p consumers (prepared) must outlive the producer. */
    RegionProducer(const func::Program &program,
                   const std::vector<Cluster> &schedule,
                   std::vector<const WarmupPolicy *> consumers,
                   const SampledConfig &config);

    /**
     * Fill @p out with the next region, in schedule order, reusing its
     * buffers. Throws TimeoutError when the deadline expires.
     */
    void produce(RegionLog &out);

    /** Skip (stepping + logging) and capture (trace) wall time so far. */
    const PhaseCounters &counters() const { return counters_; }

  private:
    func::FuncSim fs;
    const std::vector<Cluster> &schedule;
    std::vector<const WarmupPolicy *> consumers;
    const Deadline *deadline;
    std::uint64_t ilineMask;
    bool logMem = false;
    bool logBranches = false;
    std::size_t next = 0;
    std::uint64_t pos = 0;
    PhaseCounters counters_;
};

/**
 * One policy of a sampled run: warms its own machine from each RegionLog
 * (consumeRegion, then ReconstructPhase), then captures the region's
 * cluster. A solo run capture()s it as a ClusterReplayTask; a policy
 * sweep consume()s it, measuring on a replay arena.
 */
class RegionConsumer
{
  public:
    /** @param slot this consumer's index into RegionLog::cursors */
    RegionConsumer(WarmupPolicy &policy, std::size_t slot,
                   const SampledConfig &config);

    /** WarmupPolicy::prepare(), timed as this policy's. */
    void prepare(const func::Program &program,
                 const std::vector<Cluster> &schedule,
                 const Deadline *deadline);

    /**
     * Warm from the next region (schedule order) and emit its cluster to
     * @p sink, the machine by value. The task takes the region's trace
     * and, in its measurement context, its branch records by move.
     */
    void capture(RegionLog &region, ReplaySink &sink);

    /**
     * Warm from the next region (schedule order), copy the warm machine
     * onto @p arena, measure the cluster there and commit it to
     * @p ledger. The region is left unchanged for other consumers.
     */
    void consume(const RegionLog &region, ReplayArena &arena,
                 ReplayLedger &ledger);

    /**
     * The front half's result: skipped instructions, warm work, phase
     * times, and seconds, each this consumer's own plus @p share of the
     * producer's skip and capture time.
     */
    SampledResult finish(const PhaseCounters &producer, double share);

  private:
    /** consumeRegion() + the cluster-boundary work, timed. */
    void warm(const RegionLog &region);

    WarmupPolicy &policy;
    std::size_t slot;
    Machine machine;
    std::uint64_t ilineMask;
    SampledResult res;
    ReconstructPhase reconstruct;
    double seconds = 0.0;
};

} // namespace rsr::core

#endif // RSR_CORE_PHASE_DRIVER_HH
