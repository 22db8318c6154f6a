/**
 * @file
 * The phase driver: one sampled-run pipeline for the hot/cold/warm loop
 * of the paper's Figure 1, split by what each step depends on.
 *
 *   RegionProducer   what the program did, whatever the warm-up policy:
 *                    one functional pass over the schedule that logs each
 *                    skip region as `rsr100` logs it and records the
 *                    cluster's committed trace (a RegionLog), polling the
 *                    watchdog;
 *   RegionConsumer   what one policy does with it: warm its machine from
 *                    the log (WarmupPolicy::consumeRegion), run the
 *                    cluster-boundary work (ReconstructPhase), and hand
 *                    the warm machine and the measurement context to its
 *                    caller at the cluster boundary.
 *
 * Every sampled run is one producer and one consumer per policy, and the
 * caller decides what a cluster boundary does: copy the warm machine onto
 * a ReplayArena and measure the cluster there on the cycle-accurate
 * timing model (ReplayLedger), or snapshot it to bytes for a live-point
 * store, which measures it later (replayCluster()). core::runSampled()
 * and LivePointStore::create() alternate one producer and one consumer
 * on the calling thread; harness::runSampledParallel() and
 * harness::runPolicySweep() run the consumers on pool workers and, while
 * the producer would wait, on the calling thread. After the
 * boundary, the consumer's own machine receives the cluster's state
 * effects *functionally* (commit-order warm accesses), so there is one
 * estimator: the result depends neither on where, when, or on how many
 * threads the timing measurements run, nor on how many policies share
 * the pass.
 *
 * SkipPhase, ReconstructPhase and CapturePhase expose the same steps one
 * at a time over a caller's functional simulator, for callers that time
 * each step themselves (perfbench's traced replica).
 */

#ifndef RSR_CORE_PHASE_DRIVER_HH
#define RSR_CORE_PHASE_DRIVER_HH

#include <cstdint>
#include <functional>
#include <memory>
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
 * Everything needed to measure one stored cluster: the warm state as
 * snapshot bytes, the committed trace, and the policy's measurement-time
 * context (on-demand reconstruction state). Produced by a live-point
 * store (LivePointStore::makeReplayTask()) or CapturePhase, consumed by
 * replayCluster().
 */
struct ClusterReplayTask
{
    std::size_t index = 0;
    Cluster cluster;
    /** The warmed machine as snapshot bytes. */
    std::vector<std::uint8_t> machineState;
    std::vector<func::DynInst> trace;
    std::unique_ptr<MeasureContext> context;
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
 * A thread-private machine reused across cluster measurements. Building
 * a Machine allocates every cache array and predictor table; doing that
 * per cluster on every worker makes measurement a global-heap contention
 * benchmark instead of a simulation. One arena per measuring thread
 * amortizes the allocation. copy() and load() overwrite the arena
 * machine with a cluster's warm state: copy() copies a warm machine into
 * its arrays; load() restores snapshot bytes in place (Machine::restore
 * covers the whole hierarchy and predictor state). Either then clears
 * what a snapshot leaves out (Machine::clearTransientState()), so a
 * reused machine is bit-identical to a fresh one.
 */
class ReplayArena
{
  public:
    ReplayArena() = default;

    /** The arena machine for @p machine_config, built on first use. */
    Machine &acquire(const MachineConfig &machine_config);

    /**
     * Restore @p task's snapshot bytes as the arena machine for
     * @p machine_config. Throws CorruptInputError on bytes that do not
     * restore.
     */
    Machine &load(const ClusterReplayTask &task,
                  const MachineConfig &machine_config);

    /** Copy @p warm's snapshot state in as the arena machine. */
    Machine &copy(const Machine &warm);

  private:
    std::unique_ptr<Machine> machine;
};

/**
 * Measure @p trace on @p m, a machine holding the cluster's warm state,
 * with @p context (may be null) attached for the cluster. @p m's state
 * is consumed: it ends as the timing model left it.
 *
 * @param recon_updates receives the context's on-demand reconstruction
 *        work (0 without a context).
 */
uarch::RunResult measureCluster(Machine &m, MeasureContext *context,
                                const std::vector<func::DynInst> &trace,
                                const uarch::CoreParams &core_params,
                                std::uint64_t *recon_updates);

/**
 * Measure one stored cluster on @p arena's machine: restore the task's
 * snapshot bytes, attach its measurement context, run the timing model
 * over its trace. The task already holds the warmed state a skip would
 * have produced, so a stored cluster (e.g. from a live-point store)
 * replays with zero functional simulation. The arena must be private to
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
 * and accounts for them. measure() and replay() each measure one cluster
 * and commit its whole outcome into a cache-line-padded slot keyed by
 * its schedule index, never by completion order. fold() walks the slots
 * in index order on one thread, so the result does not depend on which
 * thread measured which cluster, or when. Distinct clusters may be
 * measured concurrently, each on its thread's own arena; every slot is
 * written once.
 */
class ReplayLedger
{
  public:
    /** @p machine must outlive the ledger. */
    ReplayLedger(std::size_t clusters, const MachineConfig &machine);
    ReplayLedger(const ReplayLedger &) = delete;
    ReplayLedger &operator=(const ReplayLedger &) = delete;

    /**
     * Measure cluster @p index's @p trace on @p m, a machine holding the
     * cluster's warm state (ReplayArena::copy()), with @p context (may
     * be null) attached, and commit its slot.
     */
    void measure(std::size_t index, Machine &m, MeasureContext *context,
                 const std::vector<func::DynInst> &trace);

    /** Measure the stored cluster @p task on @p arena (replayCluster())
     *  and commit its slot. */
    void replay(ClusterReplayTask &task, ReplayArena &arena);

    /**
     * Fold the slots, in schedule-index order, into @p res: per-cluster
     * IPC, the hot and measure-phase counters, the reconstruction work,
     * and the uniform cluster estimate. Returns the measurements'
     * on-demand reconstruction updates (already added to res.warmWork).
     */
    std::uint64_t fold(SampledResult &res) const;

  private:
    void commit(std::size_t index, const uarch::RunResult &rr,
                std::uint64_t recon_updates, double seconds);

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
 * (consumeRegion, then ReconstructPhase) and hands the cluster boundary
 * to its caller, who copies the warm machine onto an arena to measure it
 * or snapshots it for a store.
 */
class RegionConsumer
{
  public:
    /**
     * What a caller does at a cluster boundary, given the warm machine
     * (valid only during the call) and the policy's measurement context
     * for the cluster (may be null). The context borrows the region's
     * branch records, so the region must outlive it.
     */
    using Boundary =
        std::function<void(const Machine &, std::unique_ptr<MeasureContext>)>;

    /** @param slot this consumer's index into RegionLog::cursors */
    RegionConsumer(WarmupPolicy &policy, std::size_t slot,
                   const SampledConfig &config);

    /** WarmupPolicy::prepare(), timed as this policy's. */
    void prepare(const func::Program &program,
                 const std::vector<Cluster> &schedule,
                 const Deadline *deadline);

    /**
     * The per-region step: warm from the next region (schedule order),
     * run @p boundary, then give this machine the cluster's state
     * effects. @p boundary's time counts as capture time. The region is
     * left unchanged for other consumers.
     */
    void consume(const RegionLog &region, const Boundary &boundary);

    /**
     * The front half's result: skipped instructions, warm work, phase
     * times, and seconds, each this consumer's own plus @p share of the
     * producer's skip and capture time.
     */
    SampledResult finish(const PhaseCounters &producer, double share);

  private:
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
