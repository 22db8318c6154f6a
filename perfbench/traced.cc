/**
 * @file
 * The traced run. It rebuilds the deferred pipeline from the library's
 * public pieces — makeSchedule, SkipPhase / ReconstructPhase /
 * CapturePhase on the caller, a bench-owned ThreadPool fed one task per
 * cluster, and restoreFromBytes + MeasureContext attach/detach +
 * OoOCore::run on the workers — and times each call from here, so the
 * library needs no instrumentation. Every replica result must equal what
 * the library's own entry point returns for the same input.
 */

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "core/phase_driver.hh"
#include "core/regimen.hh"
#include "core/statistics.hh"
#include "func/funcsim.hh"
#include "harness/parallel_run.hh"
#include "perfbench.hh"
#include "util/snapshot.hh"

namespace rsr::perfbench
{

namespace
{

struct ClusterOut
{
    uarch::RunResult rr;
    std::uint64_t reconUpdates = 0;
};

/**
 * Waits for a pool on scope exit, so tasks that reference the caller's
 * locals finish before those die when the front half throws.
 */
class DrainOnExit
{
  public:
    explicit DrainOnExit(harness::ThreadPool *pool) : pool(pool) {}
    ~DrainOnExit()
    {
        if (!pool)
            return;
        try {
            pool->wait();
        } catch (...) {
            // The front half's own exception is the one to report.
        }
    }
    DrainOnExit(const DrainOnExit &) = delete;
    DrainOnExit &operator=(const DrainOnExit &) = delete;

    /** Wait now, rethrowing a task failure; disarms the guard. */
    void
    wait(Tracer &tracer)
    {
        harness::ThreadPool *p = pool;
        pool = nullptr;
        Tracer::Scope span(&tracer, "harness.pool.wait");
        p->wait();
    }

  private:
    harness::ThreadPool *pool;
};

/** One cluster's timing replay on @p arena (replayCluster's steps). */
void
tracedReplay(Tracer &tracer, core::ClusterReplayTask &task,
             const core::MachineConfig &machine, core::ReplayArena &arena,
             ClusterOut &out)
{
    core::Machine &m = arena.acquire(machine);
    {
        Tracer::Scope span(&tracer, "util.snapshot.restore");
        restoreFromBytes(m, task.machineState);
    }
    {
        Tracer::Scope span(&tracer, "core.context");
        if (task.context)
            task.context->attach(m);
    }
    m.hier.l1Bus().reset();
    m.hier.l2Bus().reset();
    uarch::OoOCore core(machine.core, m.hier, m.bp);
    core::TraceSource src(task.trace);
    {
        Tracer::Scope span(&tracer, "uarch.run");
        out.rr = core.run(src, task.trace.size());
    }
    {
        Tracer::Scope span(&tracer, "core.context");
        if (task.context)
            out.reconUpdates = task.context->detach(m);
    }
    tracer.count("util.snapshot.restore.bytes",
                 static_cast<double>(task.machineState.size()));
    tracer.count("uarch.insts", static_cast<double>(out.rr.insts));
    tracer.count("uarch.cycles", static_cast<double>(out.rr.cycles));
    tracer.count("uarch.branch_mispredicts",
                 static_cast<double>(out.rr.branchMispredicts));
    tracer.count("uarch.dispatch_stall_cycles",
                 static_cast<double>(out.rr.dispatchStallCycles));
}

/** Schedule-order merge of per-cluster replays (ReplayLanes::fold). */
core::SampledResult
fold(const std::vector<ClusterOut> &out, std::uint64_t *recon_updates)
{
    core::SampledResult res;
    *recon_updates = 0;
    for (const ClusterOut &o : out) {
        res.clusterIpc.push_back(o.rr.ipc());
        res.hotInsts += o.rr.insts;
        res.hotCycles += o.rr.cycles;
        res.branchMispredicts += o.rr.branchMispredicts;
        *recon_updates += o.reconUpdates;
    }
    res.estimate = core::summarizeClusters(res.clusterIpc);
    return res;
}

RunSpec
probeSpec(const char *policy)
{
    // The serve catalogue's size: small enough to cost well under a
    // second per leg.
    serve::SimRequest r = RequestStream::catalogue().front();
    r.policy = policy;
    return ServeSession::directSpec(r);
}

double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

} // namespace

core::SampledResult
tracedSampledRun(Tracer &tracer, const RunSpec &spec,
                 harness::ThreadPool *pool)
{
    const core::SampledConfig &cfg = spec.config;
    const auto policy = core::makePolicyByName(spec.policy);
    Rng rng(cfg.scheduleSeed);
    const std::vector<core::Cluster> schedule =
        core::makeSchedule(cfg.regimen, cfg.totalInsts, rng);

    func::FuncSim fs(*spec.program);
    core::Machine machine(cfg.machine);
    policy->clearWork();
    policy->attach(machine);
    const std::uint64_t iline_mask =
        ~std::uint64_t{machine.hier.il1().params().lineBytes - 1};
    core::PhaseCounters counters;
    core::SkipPhase skip(fs, *policy, cfg.deadline, iline_mask, counters);
    core::ReconstructPhase reconstruct(*policy, counters);
    core::CapturePhase capture(fs, *policy, machine, iline_mask, counters);

    std::vector<ClusterOut> out(schedule.size());
    std::vector<core::ReplayArena> arenas(pool ? pool->size() + 1 : 1);
    const std::uint64_t parent = traceContext().span;
    DrainOnExit drain(pool);

    std::uint64_t skipped = 0;
    std::uint64_t pos = 0;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const core::Cluster &c = schedule[i];
        {
            Tracer::Scope span(&tracer, "core.skip");
            skip.run(c.start - pos);
        }
        skipped += c.start - pos;
        {
            Tracer::Scope span(&tracer, "core.reconstruct");
            reconstruct.run();
        }
        auto task = std::make_shared<core::ClusterReplayTask>();
        {
            Tracer::Scope span(&tracer, "core.capture");
            *task = capture.run(i, c);
        }
        tracer.count("core.capture.bytes",
                     static_cast<double>(task->machineState.size()));
        if (!pool)
            tracedReplay(tracer, *task, cfg.machine, arenas[0], out[i]);
        else
            submitTraced(tracer, *pool, parent, task->trace.size(),
                         [&tracer, task, &cfg, &arenas, &out,
                          i](int lane) {
                             tracedReplay(tracer, *task, cfg.machine,
                                          arenas[lane], out[i]);
                         });
        pos = c.start + c.size;
    }
    if (pool)
        drain.wait(tracer);
    tracer.count("core.skip.insts", static_cast<double>(skipped));

    std::uint64_t recon = 0;
    core::SampledResult res = fold(out, &recon);
    policy->addReconstructionWork(recon);
    res.skippedInsts = skipped;
    res.warmWork = policy->work();
    const core::WarmupWork &w = res.warmWork;
    tracer.count("core.warm.logged_records",
                 static_cast<double>(w.loggedRecords));
    tracer.count("core.warm.reconstruction_updates",
                 static_cast<double>(w.reconstructionUpdates));
    tracer.count("core.warm.functional_updates",
                 static_cast<double>(w.functionalUpdates));
    tracer.peak("core.warm.peak_log_bytes",
                static_cast<double>(w.peakLogBytes));
    return res;
}

core::SampledResult
tracedStoreReplay(Tracer &tracer, const core::LivePointStore &store,
                  const core::MachineConfig &machine,
                  harness::ThreadPool &pool)
{
    // Longest cluster first, as replayStoreParallel submits them.
    const std::size_t n = store.clusterCount();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&store](std::size_t a, std::size_t b) {
                         return store.entries()[a].cluster.size >
                                store.entries()[b].cluster.size;
                     });

    std::vector<ClusterOut> out(n);
    std::vector<core::ReplayArena> arenas(pool.size() + 1);
    const std::uint64_t parent = traceContext().span;
    DrainOnExit drain(&pool);
    for (std::size_t i : order)
        submitTraced(tracer, pool, parent, store.entries()[i].cluster.size,
                     [&tracer, &store, &machine, &arenas, &out,
                      i](int lane) {
                         core::ClusterReplayTask task;
                         {
                             Tracer::Scope span(&tracer, "core.store.decode");
                             task = store.makeReplayTask(i);
                         }
                         tracedReplay(tracer, task, machine, arenas[lane],
                                      out[i]);
                     });
    drain.wait(tracer);

    std::uint64_t recon = 0;
    core::SampledResult res = fold(out, &recon);
    res.warmWork.reconstructionUpdates = recon;
    return res;
}

std::unique_ptr<harness::ThreadPool>
startPool(Tracer &tracer)
{
    Tracer::Scope span(&tracer, "harness.pool.start");
    return std::make_unique<harness::ThreadPool>(kJobs);
}

void
stopPool(Tracer &tracer, std::unique_ptr<harness::ThreadPool> &pool)
{
    Tracer::Scope span(&tracer, "harness.pool.stop");
    pool.reset();
}

void
countStore(Tracer &tracer, const core::LivePointStore &store)
{
    tracer.count("core.store.count", 1.0);
    tracer.count("core.store.bytes_per_cluster", store.bytesPerCluster());
    tracer.count("core.store.dedup_ratio", store.dedupRatio());
}

namespace
{

/** Small legs for the layers a workload's own path does not cross. */
void
pipelineProbe(Tracer &tracer, Report &report)
{
    for (const char *policy : {"rsr40", "smarts"}) {
        const RunSpec spec = probeSpec(policy);
        tracer.beginOp();
        Tracer::Scope op(&tracer, "probe");
        auto pool = startPool(tracer);
        const core::SampledResult replica =
            tracedSampledRun(tracer, spec, pool.get());
        stopPool(tracer, pool);
        const bool ok =
            sameRun("pipeline probe", replica, directRun(spec, kJobs));
        report.attempt(ok);
        if (!ok)
            report.fail(std::string("pipeline replica differs for ") +
                        policy);
    }
}

void
storeProbe(Tracer &tracer, Report &report)
{
    const RunSpec spec = probeSpec("rsr40");
    tracer.beginOp();
    Tracer::Scope op(&tracer, "probe");
    std::vector<std::uint8_t> bytes;
    {
        const auto policy = core::makePolicyByName(spec.policy);
        Tracer::Scope span(&tracer, "core.store.create");
        bytes = core::LivePointStore::create(*spec.program, *policy,
                                             spec.config, spec.profile,
                                             spec.policy)
                    .serialize();
    }
    tracer.count("core.store.open.bytes", static_cast<double>(bytes.size()));
    std::unique_ptr<core::LivePointStore> store;
    {
        Tracer::Scope span(&tracer, "core.store.open");
        store = std::make_unique<core::LivePointStore>(
            core::LivePointStore::deserialize(bytes));
    }
    countStore(tracer, *store);
    auto pool = startPool(tracer);
    const core::SampledResult replica =
        tracedStoreReplay(tracer, *store, store->meta().machine, *pool);
    stopPool(tracer, pool);
    const bool ok =
        sameTiming("store probe",
                   replica, harness::replayStoreParallel(*store, kJobs)) &&
        sameTiming("store probe vs direct", replica, directRun(spec, 1));
    report.attempt(ok);
    if (!ok)
        report.fail("store replay replica differs");
}

void
serveProbe(Tracer &tracer, Report &report, std::uint64_t seed)
{
    ServeSession session(deriveSeed(seed, 0x5e));
    session.start();
    for (unsigned i = 0; i < 2 * RequestStream::blockSize; ++i) {
        tracer.beginOp();
        Tracer::Scope op(&tracer, "probe");
        report.attempt(session.request(&tracer, report));
    }
    session.stop();
    session.countLayers(tracer);
    session.verify(report);
}

/** FuncSim::step(&d) over each distinct population. */
void
funcStepProbe(Tracer &tracer, const std::vector<RunSpec> &populations)
{
    std::vector<const func::Program *> seen;
    for (const RunSpec &spec : populations) {
        if (std::find(seen.begin(), seen.end(), spec.program) != seen.end())
            continue;
        seen.push_back(spec.program);
        func::FuncSim fs(*spec.program);
        func::DynInst d;
        std::uint64_t n = 0;
        const double t0 = nowSeconds();
        while (n < spec.config.totalInsts && fs.step(&d))
            ++n;
        tracer.count("func.step.s", nowSeconds() - t0);
        tracer.count("func.step.insts", static_cast<double>(n));
    }
}

} // namespace

void
runTraced(Workload &workload, std::uint64_t seed,
          const std::string &spans_out, Report &report)
{
    Tracer tracer;
    workload.setup();

    // The same operations untraced and then traced; the traced ones
    // also check their replica against the untraced results.
    const std::size_t n = workload.traceRounds() * workload.roundSize();
    std::vector<double> plain, traced, units;
    for (std::size_t i = 0; i < n; ++i) {
        const double t0 = nowSeconds();
        report.attempt(workload.op(i, report, units));
        plain.push_back(nowSeconds() - t0);
    }
    workload.tracedPrologue(tracer, report);
    std::uint64_t first_op = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t op = tracer.beginOp();
        first_op = first_op ? first_op : op;
        const double t0 = nowSeconds();
        bool ok = false;
        {
            Tracer::Scope span(&tracer, "op");
            ok = workload.tracedOp(i, tracer, report);
        }
        traced.push_back(nowSeconds() - t0);
        report.attempt(ok);
    }
    const double unattributed = tracer.unattributedFrac(first_op);
    workload.tracedEpilogue(tracer, report);

    if (!workload.crossesPipeline())
        pipelineProbe(tracer, report);
    if (!workload.crossesStore())
        storeProbe(tracer, report);
    if (!workload.crossesServe())
        serveProbe(tracer, report, seed);
    funcStepProbe(tracer, workload.populations());

    const auto per = [&](const char *span, double scale) {
        return scale * ratio(tracer.total(span),
                             static_cast<double>(tracer.spans(span)));
    };
    const double uarch_s = tracer.total("uarch.run");
    const double stores = tracer.counter("core.store.count");

    report.metric("workload.build_s", workload.buildSeconds(), "s");
    report.metric("func.step_ns_per_inst",
                  1e9 * ratio(tracer.counter("func.step.s"),
                              tracer.counter("func.step.insts")),
                  "ns/inst");
    report.metric("core.skip.ns_per_inst",
                  1e9 * ratio(tracer.total("core.skip"),
                              tracer.counter("core.skip.insts")),
                  "ns/inst");
    report.metric("core.skip.s", tracer.total("core.skip"), "s");
    report.metric("core.reconstruct.us_per_cluster",
                  per("core.reconstruct", 1e6), "us");
    for (const char *c : {"core.warm.logged_records",
                          "core.warm.reconstruction_updates",
                          "core.warm.functional_updates"})
        report.metric(c, tracer.counter(c), "count");
    report.metric("core.warm.peak_log_bytes",
                  tracer.peakOf("core.warm.peak_log_bytes"), "bytes");
    report.metric("core.reconstruct.apply_ratio",
                  ratio(tracer.counter("core.warm.reconstruction_updates"),
                        tracer.counter("core.warm.logged_records")),
                  "ratio");
    report.metric("core.capture.us_per_cluster", per("core.capture", 1e6),
                  "us");
    report.metric("core.context.us_per_cluster",
                  2.0 * per("core.context", 1e6), "us");
    report.metric("core.capture.snapshot_bytes",
                  ratio(tracer.counter("core.capture.bytes"),
                        static_cast<double>(tracer.spans("core.capture"))),
                  "bytes");
    report.metric("harness.pool.submit_us", per("harness.pool.submit", 1e6),
                  "us");
    report.metric("harness.pool.start_wait_us",
                  per("harness.pool.start_wait", 1e6), "us");
    report.metric("harness.pool.wait_s", per("harness.pool.wait", 1.0), "s");
    report.metric("harness.pool.start_us", per("harness.pool.start", 1e6),
                  "us");
    report.metric("harness.pool.stop_us", per("harness.pool.stop", 1e6),
                  "us");
    report.metric("util.snapshot.restore_ns_per_byte",
                  1e9 * ratio(tracer.total("util.snapshot.restore"),
                              tracer.counter("util.snapshot.restore.bytes")),
                  "ns/B");
    report.metric("uarch.ns_per_inst",
                  1e9 * ratio(uarch_s, tracer.counter("uarch.insts")),
                  "ns/inst");
    report.metric("uarch.ns_per_cycle",
                  1e9 * ratio(uarch_s, tracer.counter("uarch.cycles")),
                  "ns/cycle");
    for (const char *c : {"uarch.insts", "uarch.cycles",
                          "uarch.branch_mispredicts",
                          "uarch.dispatch_stall_cycles"})
        report.metric(c, tracer.counter(c), "count");
    report.metric("core.store.bytes_per_cluster",
                  ratio(tracer.counter("core.store.bytes_per_cluster"),
                        stores),
                  "bytes");
    report.metric("core.store.dedup_ratio",
                  ratio(tracer.counter("core.store.dedup_ratio"), stores),
                  "ratio");
    report.metric("core.store.open_ns_per_byte",
                  1e9 * ratio(tracer.total("core.store.open"),
                              tracer.counter("core.store.open.bytes")),
                  "ns/B");
    report.metric("core.store.decode_us_per_cluster",
                  per("core.store.decode", 1e6), "us");
    for (const char *tier : {"hit", "warm", "cold"})
        report.metric(std::string("serve.tier.") + tier + "_ms_p50",
                      median(tracer.samples(std::string("serve.tier.") +
                                            tier + "_ms")),
                      "ms");
    report.metric("serve.client.encode_us",
                  per("serve.client.encode", 1e6), "us");
    report.metric("serve.client.decode_us",
                  per("serve.client.decode", 1e6), "us");
    // The stream's tier shares as the daemon counted them: hits are the
    // result cache's hit ratio.
    const double served = tracer.counter("serve.stats.completed");
    report.metric("serve.result_cache.hit_ratio",
                  ratio(tracer.counter("serve.stats.cache_hits"), served),
                  "ratio");
    report.metric("serve.tier.warm_share",
                  ratio(tracer.counter("serve.stats.warm_replays"), served),
                  "ratio");
    report.metric("serve.tier.cold_share",
                  ratio(tracer.counter("serve.stats.cold_captures"), served),
                  "ratio");
    report.metric("serve.store_cache_mb",
                  tracer.peakOf("serve.store_cache_bytes") / (1 << 20), "MB");
    report.metric("trace.unattributed_frac", unattributed, "frac");
    report.metric("trace.overhead_frac",
                  ratio(median(traced), median(plain)) - 1.0, "frac");

    if (!spans_out.empty())
        tracer.write(spans_out);
}

} // namespace rsr::perfbench
