#include "phase_driver.hh"

#include "util/logging.hh"
#include "util/timer.hh"

namespace rsr::core
{

namespace
{

/**
 * The skip inner loop, templated on the concrete final policy type so
 * that the onSkipInst() call resolves statically and inlines. Each
 * instantiation stays a function of its own, so each is optimized as
 * one loop around the always-inlined FuncSim::step (PERFORMANCE.md).
 */
template <typename P>
[[gnu::noinline]] void
skipLoop(P &policy, func::FuncSim &fs, const Deadline *deadline,
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
        policy.onSkipInst(d, new_block);
    }
}

} // namespace

void
SkipPhase::run(std::uint64_t skip_len)
{
    WallTimer timer;
    policy.beginSkip(skip_len);

    // Fast-forward the unobserved prefix: no instruction record is
    // captured and the policy is not called, only the last PC is tracked
    // so the observed tail sees the same I-line boundary it would in a
    // single pass.
    const std::uint64_t observe_from =
        std::min(policy.observeFrom(skip_len), skip_len);
    std::uint64_t last_iblock = ~std::uint64_t{0};
    if (observe_from > 0) {
        std::uint64_t last_pc = 0;
        for (std::uint64_t i = 0; i < observe_from; ++i) {
            if (deadline && (i & Deadline::pollMask) == 0 &&
                deadline->expired())
                throw TimeoutError("sampled run exceeded its deadline "
                                   "inside a skip region");
            last_pc = fs.pc();
            const bool ok = fs.step(nullptr);
            rsr_assert(ok, "workload halted inside a skip region");
        }
        last_iblock = last_pc & ilineMask;
    }

    if (auto *p = dynamic_cast<FunctionalWarmup *>(&policy))
        skipLoop(*p, fs, deadline, ilineMask, observe_from, skip_len,
                 last_iblock);
    else
        skipLoop(dynamic_cast<ReverseReconstructionWarmup &>(policy), fs,
                 deadline, ilineMask, observe_from, skip_len, last_iblock);
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
CapturePhase::take(std::size_t index, const Cluster &cluster)
{
    WallTimer capture;
    ClusterReplayTask task;
    task.index = index;
    task.cluster = cluster;
    task.machine.emplace(machine.warmCopy());
    task.context = policy.makeMeasureContext();

    // Record the cluster's committed trace. The shared machine receives
    // the cluster's state effects functionally, in commit order, so the
    // next skip region begins from hot state no matter where (or when)
    // the timing replay runs. This is what makes the front half — and
    // therefore the whole result — independent of the replay thread
    // count.
    task.trace.reserve(cluster.size);
    func::DynInst d;
    std::uint64_t last_iblock = ~std::uint64_t{0};
    for (std::uint64_t i = 0; i < cluster.size; ++i) {
        const bool ok = fs.step(&d);
        rsr_assert(ok, "workload halted inside a cluster");
        task.trace.push_back(d);
        const std::uint64_t blk = d.pc & ilineMask;
        if (blk != last_iblock)
            machine.hier.warmAccess(d.pc, false, true);
        last_iblock = blk;
        if (d.inst.isMem())
            machine.hier.warmAccess(d.effAddr, d.inst.isStore(), false);
        if (d.isBranch())
            machine.bp.warmApply(d.pc, d.inst.branchKind(), d.taken,
                                 d.nextPc);
    }
    counters.captureSeconds += capture.seconds();
    return task;
}

ClusterReplayTask
CapturePhase::run(std::size_t index, const Cluster &cluster)
{
    ClusterReplayTask task = take(index, cluster);
    task.machineState = snapshotToBytes(*task.machine);
    task.machine.reset();
    return task;
}

ClusterScheduleDriver::ClusterScheduleDriver(const func::Program &program,
                                             WarmupPolicy &policy,
                                             const SampledConfig &config)
    : program(program), policy(policy), config(config)
{
    if (!config.explicitSchedule.empty()) {
        validateSchedule(config.explicitSchedule, config.totalInsts);
        schedule_ = config.explicitSchedule;
    } else {
        Rng rng(config.scheduleSeed);
        schedule_ = makeSchedule(config.regimen, config.totalInsts, rng);
    }
}

SampledResult
ClusterScheduleDriver::runDeferred(ReplaySink &sink)
{
    SampledResult res;
    WallTimer timer;

    policy.prepare(program, schedule_, config.deadline);
    func::FuncSim fs(program);
    Machine machine(config.machine);
    policy.clearWork();
    policy.attach(machine);

    const std::uint64_t iline_mask =
        ~std::uint64_t{machine.hier.il1().params().lineBytes - 1};

    SkipPhase skip(fs, policy, config.deadline, iline_mask, res.phases);
    ReconstructPhase reconstruct(policy, res.phases);
    CapturePhase capture(fs, policy, machine, iline_mask, res.phases);

    std::uint64_t pos = 0;
    std::size_t index = 0;
    for (const Cluster &cluster : schedule_) {
        if (config.deadline && config.deadline->expired())
            throw TimeoutError("sampled run exceeded its deadline at "
                               "cluster boundary");
        skip.run(cluster.start - pos);
        res.skippedInsts += cluster.start - pos;
        reconstruct.run();

        sink.onCluster(capture.take(index, cluster));
        pos = cluster.start + cluster.size;
        ++index;
    }

    res.warmWork = policy.work();
    res.seconds = timer.seconds();
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

        // The models run continuously — skipped regions warm them just
        // like SkipPhase warms the real hierarchy — but counts are only
        // charged to the enclosing candidate cluster.
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
ReplayArena::load(ClusterReplayTask &task,
                  const MachineConfig &machine_config)
{
    if (!task.machine) {
        Machine &m = acquire(machine_config);
        restoreFromBytes(m, task.machineState);
        m.clearTransientState();
        return m;
    }
    if (machine)
        *machine = std::move(*task.machine);
    else
        machine = std::make_unique<Machine>(std::move(*task.machine));
    task.machine.reset();
    return *machine;
}

uarch::RunResult
replayCluster(ClusterReplayTask &task,
              const MachineConfig &machine_config, ReplayArena &arena,
              std::uint64_t *recon_updates, double *seconds)
{
    WallTimer timer;
    Machine &m = arena.load(task, machine_config);
    if (task.context)
        task.context->attach(m);
    uarch::OoOCore core(machine_config.core, m.hier, m.bp);
    TraceSource src(task.trace);
    const uarch::RunResult rr = core.run(src, task.trace.size());
    rsr_assert(rr.insts == task.trace.size(),
               "stored trace ended inside a cluster");
    std::uint64_t updates = 0;
    if (task.context)
        updates = task.context->detach(m);
    if (recon_updates)
        *recon_updates = updates;
    if (seconds)
        *seconds = timer.seconds();
    return rr;
}

ReplayLedger::ReplayLedger(std::size_t clusters, unsigned lanes,
                           const MachineConfig &machine)
    : machine(machine), slots(clusters), arenas(lanes)
{}

void
ReplayLedger::replay(ClusterReplayTask &task, std::size_t lane)
{
    rsr_assert(lane < arenas.size(), "replay lane out of range");
    rsr_assert(task.index < slots.size(), "replay slot out of range");
    Slot &slot = slots[task.index];
    const uarch::RunResult rr = replayCluster(
        task, machine, arenas[lane], &slot.reconUpdates, &slot.seconds);
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
