#include "phase_driver.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/timer.hh"

namespace rsr::core
{

namespace
{

/**
 * Fast-forward @p n instructions of a skip region: no instruction record
 * is captured and no policy is called. Returns the I-line of the last
 * one (~0 when @p n is 0), so an observed tail sees the same fetch-block
 * boundary it would in a single pass.
 */
std::uint64_t
fastForward(func::FuncSim &fs, const Deadline *deadline, std::uint64_t n,
            std::uint64_t iline_mask)
{
    std::uint64_t last_pc = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        if (deadline && (i & Deadline::pollMask) == 0 &&
            deadline->expired())
            throw TimeoutError("sampled run exceeded its deadline "
                               "inside a skip region");
        last_pc = fs.pc();
        const bool ok = fs.step(nullptr);
        rsr_assert(ok, "workload halted inside a skip region");
    }
    return n > 0 ? last_pc & iline_mask : ~std::uint64_t{0};
}

/**
 * The skip loop's one observer: logs each instruction as `rsr100` does —
 * with @c mem, its fetch block when new and its data reference; with
 * @c branches, its control transfer.
 */
struct RegionLogWriter
{
    SkipLog &log;
    bool mem;
    bool branches;

    void
    append(const func::DynInst &d, bool new_fetch_block)
    {
        if (mem) {
            if (new_fetch_block)
                log.mem.append(d.pc, d.pc, true, false);
            if (d.inst.isMem())
                log.mem.append(d.pc, d.effAddr, false, d.inst.isStore());
        }
        if (branches && d.isBranch())
            log.branches.push_back(
                {d.pc, d.nextPc, d.inst.branchKind(), d.taken});
    }
};

/**
 * The skip inner loop over instructions [@p begin, @p end) of a region.
 * It stays a function of its own, so it is optimized as one loop around
 * the always-inlined FuncSim::step and the writer's inlined append
 * (PERFORMANCE.md). Returns the last instruction's I-line.
 */
[[gnu::noinline]] std::uint64_t
skipLoop(RegionLogWriter writer, func::FuncSim &fs, const Deadline *deadline,
         std::uint64_t iline_mask, std::uint64_t begin, std::uint64_t end,
         std::uint64_t last_iblock)
{
    func::DynInst d;
    for (std::uint64_t i = begin; i < end; ++i) {
        if (deadline && (i & Deadline::pollMask) == 0 &&
            deadline->expired())
            throw TimeoutError("sampled run exceeded its deadline "
                               "inside a skip region");
        const bool ok = fs.step(&d);
        rsr_assert(ok, "workload halted inside a skip region");
        const std::uint64_t blk = d.pc & iline_mask;
        const bool new_block = blk != last_iblock;
        last_iblock = blk;
        writer.append(d, new_block);
    }
    return last_iblock;
}

/**
 * Step one skip region of @p skip_len instructions and log it into
 * @p log (cleared first), starting at the earliest instruction a
 * consumer observes. @p from lists (first observed instruction,
 * consumer) pairs; @p cursors[consumer] receives the log's position at
 * that consumer's instruction.
 */
void
logRegion(func::FuncSim &fs, const Deadline *deadline,
          std::uint64_t iline_mask, std::uint64_t skip_len,
          std::vector<std::pair<std::uint64_t, std::size_t>> &from,
          RegionLogWriter writer, std::vector<LogCursor> &cursors)
{
    writer.log.clear();
    std::sort(from.begin(), from.end());
    std::uint64_t i = from.empty() ? skip_len : from.front().first;
    std::uint64_t last_iblock = fastForward(fs, deadline, i, iline_mask);
    cursors.resize(from.size());
    for (const auto &[at, k] : from) {
        last_iblock =
            skipLoop(writer, fs, deadline, iline_mask, i, at, last_iblock);
        i = at;
        cursors[k] = {writer.log.mem.size(), writer.log.branches.size()};
    }
    skipLoop(writer, fs, deadline, iline_mask, i, skip_len, last_iblock);
}

/**
 * A cluster's state effects on @p m, applied functionally in commit
 * order, so the next skip region begins from hot state no matter where
 * (or when) the cluster's timing replay runs.
 */
void
warmCluster(Machine &m, const std::vector<func::DynInst> &trace,
            std::uint64_t iline_mask)
{
    std::uint64_t last_iblock = ~std::uint64_t{0};
    for (const func::DynInst &d : trace) {
        const std::uint64_t blk = d.pc & iline_mask;
        if (blk != last_iblock)
            m.hier.warmAccess(d.pc, false, true);
        last_iblock = blk;
        if (d.inst.isMem())
            m.hier.warmAccess(d.effAddr, d.inst.isStore(), false);
        if (d.isBranch())
            m.bp.warmApply(d.pc, d.inst.branchKind(), d.taken, d.nextPc);
    }
}

/** The I-line mask of @p config's instruction cache. */
std::uint64_t
ilineMaskOf(const MachineConfig &config)
{
    return ~std::uint64_t{config.hier.il1.lineBytes - 1};
}

} // namespace

void
SkipPhase::run(std::uint64_t skip_len)
{
    WallTimer timer;
    std::vector<std::pair<std::uint64_t, std::size_t>> from{
        {std::min(policy.observeFrom(region++, skip_len), skip_len), 0}};
    std::vector<LogCursor> cursors;
    logRegion(fs, deadline, ilineMask, skip_len, from,
              {log, policy.warmsCache(), policy.warmsBranches()}, cursors);
    policy.consumeRegion(log, cursors.front());
    counters.skipSeconds += timer.seconds();
}

void
ReconstructPhase::run()
{
    WallTimer timer;
    policy.beforeCluster();
    counters.reconstructSeconds += timer.seconds();
}

ClusterReplayTask
CapturePhase::run(std::size_t index, const Cluster &cluster)
{
    WallTimer capture;
    ClusterReplayTask task;
    task.index = index;
    task.cluster = cluster;
    task.machineState = snapshotToBytes(machine);
    task.context = policy.makeMeasureContext();
    if (task.context)
        task.context->own(
            std::vector<BranchRecord>(task.context->records()));

    task.trace.resize(cluster.size);
    for (func::DynInst &d : task.trace) {
        const bool ok = fs.step(&d);
        rsr_assert(ok, "workload halted inside a cluster");
    }
    warmCluster(machine, task.trace, ilineMask);
    counters.captureSeconds += capture.seconds();
    return task;
}

std::vector<Cluster>
scheduleFor(const SampledConfig &config)
{
    if (!config.explicitSchedule.empty()) {
        validateSchedule(config.explicitSchedule, config.totalInsts);
        return config.explicitSchedule;
    }
    Rng rng(config.scheduleSeed);
    return makeSchedule(config.regimen, config.totalInsts, rng);
}

RegionProducer::RegionProducer(const func::Program &program,
                               const std::vector<Cluster> &schedule,
                               std::vector<const WarmupPolicy *> consumers,
                               const SampledConfig &config)
    : fs(program), schedule(schedule), consumers(std::move(consumers)),
      deadline(config.deadline), ilineMask(ilineMaskOf(config.machine))
{
    for (const WarmupPolicy *p : this->consumers) {
        logMem = logMem || p->warmsCache();
        logBranches = logBranches || p->warmsBranches();
    }
}

void
RegionProducer::produce(RegionLog &out)
{
    rsr_assert(next < schedule.size(), "producer ran past the schedule");
    if (deadline && deadline->expired())
        throw TimeoutError("sampled run exceeded its deadline at "
                           "cluster boundary");
    WallTimer timer;
    const Cluster &cluster = schedule[next];
    out.index = next;
    out.cluster = cluster;
    out.skipLen = cluster.start - pos;

    // Each consumer's first observed instruction: the log starts at the
    // earliest, and a consumer's cursor is the log's size when the pass
    // reaches its instruction.
    std::vector<std::pair<std::uint64_t, std::size_t>> from;
    for (std::size_t k = 0; k < consumers.size(); ++k)
        from.emplace_back(
            std::min(consumers[k]->observeFrom(next, out.skipLen),
                     out.skipLen),
            k);
    logRegion(fs, deadline, ilineMask, out.skipLen, from,
              {out.log, logMem, logBranches}, out.cursors);
    counters_.skipSeconds += timer.seconds();

    timer.reset();
    out.trace.resize(cluster.size);
    for (func::DynInst &d : out.trace) {
        const bool ok = fs.step(&d);
        rsr_assert(ok, "workload halted inside a cluster");
    }
    counters_.captureSeconds += timer.seconds();
    pos = cluster.start + cluster.size;
    ++next;
}

RegionConsumer::RegionConsumer(WarmupPolicy &policy, std::size_t slot,
                               const SampledConfig &config)
    : policy(policy), slot(slot), machine(config.machine),
      ilineMask(ilineMaskOf(config.machine)),
      reconstruct(policy, res.phases)
{
    policy.clearWork();
    policy.attach(machine);
}

void
RegionConsumer::prepare(const func::Program &program,
                        const std::vector<Cluster> &schedule,
                        const Deadline *deadline)
{
    WallTimer timer;
    policy.prepare(program, schedule, deadline);
    seconds += timer.seconds();
}

void
RegionConsumer::consume(const RegionLog &region, const Boundary &boundary)
{
    WallTimer task;
    WallTimer phase;
    policy.consumeRegion(region.log, region.cursors[slot]);
    res.skippedInsts += region.skipLen;
    res.phases.skipSeconds += phase.seconds();
    reconstruct.run();

    // Hand the cluster over, then give this machine its state effects.
    // That the next region is warmed from hot state wherever the cluster
    // is measured is what makes the front half — and therefore the whole
    // result — independent of the thread count.
    phase.reset();
    boundary(machine, policy.makeMeasureContext());
    warmCluster(machine, region.trace, ilineMask);
    res.phases.captureSeconds += phase.seconds();
    seconds += task.seconds();
}

SampledResult
RegionConsumer::finish(const PhaseCounters &producer, double share)
{
    res.phases.skipSeconds += share * producer.skipSeconds;
    res.phases.captureSeconds += share * producer.captureSeconds;
    res.warmWork = policy.work();
    res.seconds = seconds + share * (producer.skipSeconds +
                                     producer.captureSeconds);
    return res;
}

namespace
{

/**
 * The proxy micro-models: small enough that a functional pass over a
 * few million instructions costs microseconds per cluster, rich enough
 * that their miss/mispredict counts order clusters by timing behaviour.
 */
struct ProxyModels
{
    static constexpr std::uint64_t numSets = 512;
    static constexpr std::uint64_t lineShift = 6;
    static constexpr std::uint64_t bimodalEntries = 4096;

    std::vector<std::uint64_t> tags =
        std::vector<std::uint64_t>(numSets, ~std::uint64_t{0});
    std::vector<std::uint8_t> counters =
        std::vector<std::uint8_t>(bimodalEntries, 1);

    /** Probe-and-fill; true on miss. */
    bool
    access(std::uint64_t addr)
    {
        const std::uint64_t line = addr >> lineShift;
        const std::uint64_t set = line & (numSets - 1);
        if (tags[set] == line)
            return false;
        tags[set] = line;
        return true;
    }

    /** Predict-and-train a conditional branch; true on mispredict. */
    bool
    predict(std::uint64_t pc, bool taken)
    {
        const std::uint64_t idx = (pc >> 2) & (bimodalEntries - 1);
        std::uint8_t &ctr = counters[idx];
        const bool predicted_taken = ctr >= 2;
        if (taken && ctr < 3)
            ++ctr;
        else if (!taken && ctr > 0)
            --ctr;
        return predicted_taken != taken;
    }
};

} // namespace

std::vector<double>
profileClusterProxies(const func::Program &program,
                      const std::vector<Cluster> &candidates,
                      const Deadline *deadline)
{
    if (candidates.empty())
        return {};
    validateSchedule(candidates,
                     candidates.back().start + candidates.back().size);

    func::FuncSim fs(program);
    ProxyModels models;
    std::vector<double> scores(candidates.size(), 0.0);

    const std::uint64_t end =
        candidates.back().start + candidates.back().size;
    std::size_t next = 0;       // first candidate not yet finished
    std::uint64_t in_misses = 0, in_mispred = 0;
    func::DynInst d;
    std::uint64_t last_iblock = ~std::uint64_t{0};
    for (std::uint64_t i = 0; i < end; ++i) {
        if (deadline && (i & Deadline::pollMask) == 0 &&
            deadline->expired())
            throw TimeoutError("proxy-rank pass exceeded its deadline");
        const bool ok = fs.step(&d);
        rsr_assert(ok, "workload halted inside the proxy-rank pass");

        const Cluster &c = candidates[next];
        const bool inside = i >= c.start;
        std::uint64_t misses = 0, mispred = 0;

        // The models run continuously — skipped regions warm them as
        // they warm the real hierarchy — but counts are only charged to
        // the enclosing candidate cluster.
        const std::uint64_t blk = d.pc >> ProxyModels::lineShift
                                       << ProxyModels::lineShift;
        if (blk != last_iblock)
            misses += models.access(d.pc);
        last_iblock = blk;
        if (d.inst.isMem())
            misses += models.access(d.effAddr);
        if (d.inst.branchKind() == isa::BranchKind::Conditional)
            mispred += models.predict(d.pc, d.taken);

        if (inside) {
            in_misses += misses;
            in_mispred += mispred;
            if (i + 1 == c.start + c.size) {
                const double insts = static_cast<double>(c.size);
                scores[next] =
                    insts / (insts + 18.0 * static_cast<double>(in_misses) +
                             10.0 * static_cast<double>(in_mispred));
                in_misses = 0;
                in_mispred = 0;
                ++next;
                if (next == candidates.size())
                    break;
            }
        }
    }
    rsr_assert(next == candidates.size(),
               "proxy-rank pass ended before the last candidate");
    return scores;
}

Machine &
ReplayArena::acquire(const MachineConfig &machine_config)
{
    if (!machine)
        machine = std::make_unique<Machine>(machine_config);
    return *machine;
}

Machine &
ReplayArena::copy(const Machine &warm)
{
    if (machine)
        *machine = warm;
    else
        machine = std::make_unique<Machine>(warm);
    machine->clearTransientState();
    return *machine;
}

Machine &
ReplayArena::load(const ClusterReplayTask &task,
                  const MachineConfig &machine_config)
{
    Machine &m = acquire(machine_config);
    restoreFromBytes(m, task.machineState);
    m.clearTransientState();
    return m;
}

uarch::RunResult
measureCluster(Machine &m, MeasureContext *context,
               const std::vector<func::DynInst> &trace,
               const uarch::CoreParams &core_params,
               std::uint64_t *recon_updates)
{
    if (context)
        context->attach(m);
    uarch::OoOCore core(core_params, m.hier, m.bp);
    TraceSource src(trace);
    const uarch::RunResult rr = core.run(src, trace.size());
    rsr_assert(rr.insts == trace.size(),
               "stored trace ended inside a cluster");
    *recon_updates = context ? context->detach(m) : 0;
    return rr;
}

uarch::RunResult
replayCluster(ClusterReplayTask &task,
              const MachineConfig &machine_config, ReplayArena &arena,
              std::uint64_t *recon_updates, double *seconds)
{
    WallTimer timer;
    Machine &m = arena.load(task, machine_config);
    std::uint64_t updates = 0;
    const uarch::RunResult rr = measureCluster(
        m, task.context.get(), task.trace, machine_config.core, &updates);
    if (recon_updates)
        *recon_updates = updates;
    if (seconds)
        *seconds = timer.seconds();
    return rr;
}

ReplayLedger::ReplayLedger(std::size_t clusters,
                           const MachineConfig &machine)
    : machine(machine), slots(clusters)
{}

void
ReplayLedger::measure(std::size_t index, Machine &m, MeasureContext *context,
                      const std::vector<func::DynInst> &trace)
{
    WallTimer timer;
    std::uint64_t recon = 0;
    const uarch::RunResult rr =
        measureCluster(m, context, trace, machine.core, &recon);
    commit(index, rr, recon, timer.seconds());
}

void
ReplayLedger::replay(ClusterReplayTask &task, ReplayArena &arena)
{
    std::uint64_t recon = 0;
    double seconds = 0.0;
    const uarch::RunResult rr =
        replayCluster(task, machine, arena, &recon, &seconds);
    commit(task.index, rr, recon, seconds);
}

void
ReplayLedger::commit(std::size_t index, const uarch::RunResult &rr,
                     std::uint64_t recon_updates, double seconds)
{
    rsr_assert(index < slots.size(), "replay slot out of range");
    Slot &slot = slots[index];
    slot.reconUpdates = recon_updates;
    slot.seconds = seconds;
    slot.ipc = rr.ipc();
    slot.insts = rr.insts;
    slot.cycles = rr.cycles;
    slot.branchMispredicts = rr.branchMispredicts;
}

std::uint64_t
ReplayLedger::fold(SampledResult &res) const
{
    std::uint64_t insts = 0, recon = 0;
    for (const Slot &slot : slots) {
        res.clusterIpc.push_back(slot.ipc);
        insts += slot.insts;
        res.hotCycles += slot.cycles;
        res.branchMispredicts += slot.branchMispredicts;
        res.phases.measureSeconds += slot.seconds;
        recon += slot.reconUpdates;
    }
    res.hotInsts += insts;
    res.warmWork.reconstructionUpdates += recon;
    res.estimate = summarizeClusters(res.clusterIpc);
    return recon;
}

} // namespace rsr::core
