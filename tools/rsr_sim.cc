/**
 * @file
 * The rsr-sim command-line driver: one binary exposing the library's
 * main flows for interactive use and scripting.
 *
 *   rsr_sim list-workloads
 *   rsr_sim true-ipc     --workload gcc [--insts N] [--machine scaled|paper]
 *   rsr_sim run          --workload gcc --policy rsr20 [--insts N]
 *                        [--clusters C] [--cluster-size S] [--seed X]
 *                        [--machine scaled|paper] [--true-ipc] [--csv]
 *                        [--jobs N] — the sampled run, whose result is
 *                        bit-identical for any --jobs value (`sample` is
 *                        an alias)
 *                        [--sampling uniform|ranked-set|two-phase
 *                         --proxy ipc|bbv --set-size M --strata H
 *                         --phase1 P --rank-seed X] — estimator sampling
 *                        policies over a proxy-ranked candidate pool
 *                        (run, mklvpt, replay, and campaign all accept
 *                        the sampling flags)
 *   rsr_sim compare      --workload gcc [--policies P1,P2,...] [--jobs N]
 *                        [run flags] — Table-2-style policy sweep,
 *                        one pool task per policy
 *   rsr_sim mklvpt       --workload gcc --policy rsr40 --out file.lvpt
 *                        [run flags] — producer pass: run functional
 *                        simulation + warming once, write the per-cluster
 *                        live-point store
 *   rsr_sim replay       --store file.lvpt [--jobs N] [--csv]
 *                        [--set core.<field>=V] [validation flags] —
 *                        consumer pass: any policy/timing sweep straight
 *                        from the store, zero functional re-simulation
 *   rsr_sim record-trace --workload gcc --out file.trc [--insts N]
 *   rsr_sim sim-trace    --trace file.trc [--insts N] [--machine ...]
 *   rsr_sim simpoint     --workload gcc [--insts N] [--interval I]
 *                        [--max-k K] [--warm]
 *   rsr_sim campaign     --workloads gcc,vpr,twolf --policies none,smarts
 *                        --out DIR [--livepoints DIR] [--resume]
 *                        [--shards N] [--retries R] [--timeout SECS]
 *                        [--fault-io P] [...]
 *
 * Each command takes its own flags and refuses every other; `--set` may
 * be repeated (every setting applies, in order), any other flag is
 * given at most once.
 *
 * Policies, on every command: none, smarts, scache, sbp, fp<pct>,
 * rsr<pct>, rcache<pct>, rbp (RSR variants accept a +stale suffix),
 * mrrl, blrl.
 *
 * Exit status: 0 success, 1 fatal error, 2 campaign partially complete
 * (some jobs failed; see the manifest).
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/config_file.hh"
#include "core/estimator.hh"
#include "core/livepoint_store.hh"
#include "core/phase_driver.hh"
#include "core/stats_report.hh"
#include "func/funcsim.hh"
#include "core/sampled_sim.hh"
#include "core/warmup.hh"
#include "harness/campaign.hh"
#include "harness/estimator_run.hh"
#include "harness/parallel_run.hh"
#include "serve/daemon.hh"
#include "serve/net_io.hh"
#include "simpoint/simpoint.hh"
#include "trace/trace.hh"
#include "util/args.hh"
#include "util/checksum.hh"
#include "util/error.hh"
#include "util/fileio.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "workload/synthetic.hh"

namespace
{

using namespace rsr;

constexpr std::uint64_t kUnsignedMax = std::numeric_limits<unsigned>::max();
/** The largest `--*-mb` value whose byte count fits in 64 bits. */
constexpr std::uint64_t kMaxMegabytes =
    std::numeric_limits<std::uint64_t>::max() >> 20;

/** Apply every `--set key=value` machine option, in order, to @p mc, and
 *  check the resolved machine. */
void
applySetFlag(const ArgParser &args, core::MachineConfig &mc)
{
    for (const std::string &setting : args.getAll("set"))
        core::applyMachineSetting(mc, setting);
    core::checkMachine(mc);
}

/** The `cluster,ipc` CSV of run and replay: full precision, so two
 *  outputs can be diffed bit for bit. */
void
printClusterCsv(const std::vector<double> &cluster_ipc)
{
    std::printf("cluster,ipc\n");
    for (std::size_t i = 0; i < cluster_ipc.size(); ++i)
        std::printf("%zu,%.17g\n", i, cluster_ipc[i]);
}

core::MachineConfig
machineFor(const ArgParser &args)
{
    core::MachineConfig mc =
        core::baseMachine(args.get("machine", "scaled"));
    if (args.has("config"))
        mc = core::loadMachineConfig(args.get("config"), mc);
    applySetFlag(args, mc);
    return mc;
}

func::Program
workloadFor(const ArgParser &args)
{
    const std::string name = args.get("workload");
    if (name.empty())
        rsr_throw_user("--workload is required (try: rsr_sim "
                       "list-workloads)");
    return workload::buildSynthetic(
        workload::standardWorkloadParams(name));
}

int
cmdListWorkloads(const ArgParser &)
{
    TextTable t({"name", "stream", "chase", "branch bias", "funcs",
                 "recursion", "fp", "dispatch"});
    for (const auto &p : workload::standardWorkloadParams()) {
        t.addRow({p.name, std::to_string(p.streamBytes >> 10) + "K",
                  p.chaseBytes ? std::to_string(p.chaseBytes >> 10) + "K"
                               : "-",
                  TextTable::num(p.branchBias, 2),
                  std::to_string(p.numFuncs),
                  p.recursionDepth ? std::to_string(p.recursionDepth)
                                   : "-",
                  TextTable::num(p.fpFrac, 2),
                  p.indirectDispatch ? "indirect" : "chain"});
    }
    t.print();
    return 0;
}

int
cmdTrueIpc(const ArgParser &args)
{
    const auto program = workloadFor(args);
    const auto insts = args.getU64("insts", 4'000'000);
    const auto mc = machineFor(args);
    if (args.has("stats")) {
        // Own the machine so its counters survive for the report.
        core::Machine machine(mc);
        func::FuncSim fs(program);
        core::FuncSource src(fs);
        uarch::OoOCore core(mc.core, machine.hier, machine.bp);
        const auto r = core.run(src, insts);
        std::printf("%s", core::formatStats(machine, r).c_str());
        return 0;
    }
    const auto full = core::runFull(program, insts, mc);
    std::printf("workload %s: true IPC %.4f over %llu instructions "
                "(%llu cycles, %.2fs)\n",
                args.get("workload").c_str(), full.ipc(),
                static_cast<unsigned long long>(full.timing.insts),
                static_cast<unsigned long long>(full.timing.cycles),
                full.seconds);
    return 0;
}

core::SampledConfig
sampledConfigFor(const ArgParser &args)
{
    core::SampledConfig cfg;
    cfg.totalInsts = args.getU64("insts", 4'000'000);
    cfg.regimen.numClusters = args.getU64("clusters", 60);
    cfg.regimen.clusterSize = args.getU64("cluster-size", 3000);
    cfg.scheduleSeed = args.getU64("seed", cfg.scheduleSeed);
    cfg.machine = machineFor(args);
    return cfg;
}

core::EstimatorOptions
estimatorOptionsFor(const ArgParser &args)
{
    core::EstimatorOptions opts;
    opts.kind = core::samplingPolicyByName(args.get("sampling", "uniform"));
    opts.proxy = core::proxyKindByName(args.get("proxy", "ipc"));
    opts.setSize = args.getPositiveU64("set-size", opts.setSize);
    opts.strata = args.getPositiveU64("strata", opts.strata);
    opts.phase1PerStratum =
        args.getPositiveU64("phase1", opts.phase1PerStratum);
    opts.rankSeed = args.getU64("rank-seed", opts.rankSeed);
    return opts;
}

/**
 * The sampled run, for every --sampling policy through one pipeline
 * (uniform is one measurement pass over the regimen schedule). With
 * --csv the `cluster,ipc` rows come first; the summary line after them
 * starts `policy `, which ends the determinism CI's sed range.
 */
int
cmdRun(const ArgParser &args)
{
    const auto program = workloadFor(args);
    const auto cfg = sampledConfigFor(args);
    const auto opts = estimatorOptionsFor(args);
    const std::string policy_name = args.get("policy", "rsr20");
    const unsigned jobs =
        static_cast<unsigned>(args.getPositiveU64("jobs", 1, kUnsignedMax));

    const auto er =
        harness::runEstimator(program, policy_name, cfg, opts, jobs);
    const auto &r = er.sampled;

    if (args.has("csv"))
        printClusterCsv(r.clusterIpc);

    std::printf("policy %s on %s (%u jobs, %s): IPC estimate %.4f  "
                "CI [%.4f, %.4f]  aggregate %.4f\n",
                core::makePolicyByName(policy_name)->name().c_str(),
                args.get("workload").c_str(), jobs,
                opts.describe().c_str(), r.estimate.mean,
                r.estimate.ciLow, r.estimate.ciHigh, r.aggregateIpc());
    if (opts.kind != core::SamplingPolicyKind::UniformCluster)
        std::printf("  selected from %llu candidates; proxy pass %llu "
                    "insts; pilot %llu measured insts\n",
                    static_cast<unsigned long long>(er.candidateCount),
                    static_cast<unsigned long long>(er.proxyInsts),
                    static_cast<unsigned long long>(er.pilotMeasuredInsts));
    std::printf("%s", core::formatRunMetrics(core::runMetrics(r)).c_str());

    if (args.has("true-ipc")) {
        const auto full =
            core::runFull(program, cfg.totalInsts, cfg.machine);
        std::printf("  true IPC %.4f  relative error %.4f  CI %s\n",
                    full.ipc(), r.estimate.relativeError(full.ipc()),
                    r.estimate.passesCi(full.ipc()) ? "pass" : "FAIL");
    }
    return 0;
}

int
cmdMkLvpt(const ArgParser &args)
{
    const auto program = workloadFor(args);
    const std::string out = args.get("out");
    if (out.empty())
        rsr_throw_user("--out FILE is required (where to write the "
                       "live-point store)");
    const std::string workload = args.get("workload");
    const std::string policy_name = args.get("policy", "rsr40");
    const auto cfg = sampledConfigFor(args);
    const auto opts = estimatorOptionsFor(args);

    core::SampledResult front;
    const auto store = harness::captureEstimatorStore(
        program, policy_name, cfg, opts, workload, &front);
    store.saveFile(out);

    if (opts.kind != core::SamplingPolicyKind::UniformCluster)
        std::printf("sampling %s: captured %zu of %llu candidates\n",
                    opts.describe().c_str(), store.clusterCount(),
                    static_cast<unsigned long long>(
                        store.meta().candidateCount));

    std::printf("wrote %s: %zu live-points, %.1f KB (%.1f KB/cluster, "
                "dedup %.2fx), store hash %016llx\n",
                out.c_str(), store.clusterCount(),
                store.serialize().size() / 1024.0,
                store.bytesPerCluster() / 1024.0, store.dedupRatio(),
                static_cast<unsigned long long>(store.storeHash()));
    // A capture measures nothing: print its cost rows, no estimate.
    std::vector<core::RunMetric> metrics;
    for (const core::RunMetric &m : core::runMetrics(front))
        if (m.kind != core::MetricKind::Estimate)
            metrics.push_back(m);
    std::printf("%s", core::formatRunMetrics(metrics).c_str());
    return 0;
}

int
cmdReplay(const ArgParser &args)
{
    const std::string path = args.get("store");
    if (path.empty())
        rsr_throw_user("--store FILE is required (create one with: "
                       "rsr_sim mklvpt --workload W --policy P --out "
                       "FILE)");
    if (!fileExists(path))
        rsr_throw_user("live-point store ", path, " does not exist; "
                       "create it with: rsr_sim mklvpt --workload W "
                       "--policy P --out ", path);
    const auto store = core::LivePointStore::loadFile(path);

    // With --workload/--policy/--sampling given, the flags describe a
    // run: the store must hold its capture (a stale store is an error,
    // never silently replayed) and the replay runs under its machine,
    // exactly as `run` with the same flags. Without them, the replay
    // runs under the store's capture machine plus any --set.
    auto machine = store.meta().machine;
    if (args.has("workload") || args.has("policy") ||
        args.has("sampling")) {
        const std::string workload =
            args.get("workload", store.meta().workload);
        const std::string policy_name =
            args.get("policy", store.meta().policy);
        const auto opts = estimatorOptionsFor(args);
        const auto cfg = sampledConfigFor(args);
        const std::uint64_t want = core::LivePointStore::configHash(
            workload, policy_name, cfg, opts,
            harness::estimatorCandidateCount(cfg.regimen.numClusters,
                                             opts));
        if (want != store.configHash())
            rsr_throw_user(
                "live-point store ", path, " is stale: expected config "
                "hash ", checksumHex(want), " for ", workload, "/",
                policy_name, ", but the store holds ",
                checksumHex(store.configHash()), " (captured from ",
                store.meta().workload, "/", store.meta().policy,
                "); recreate it with: rsr_sim mklvpt --workload ",
                workload, " --policy ", policy_name, " --sampling ",
                core::samplingPolicyName(opts.kind), " --out ", path);
        machine = cfg.machine;
    } else {
        applySetFlag(args, machine);
    }

    const unsigned jobs =
        static_cast<unsigned>(args.getPositiveU64("jobs", 1, kUnsignedMax));
    // The replay computes the estimate the store's capture calls for
    // (ranked-set / stratified from the stored groups), bit-identical to
    // a direct run.
    const auto r = harness::replayStoreParallel(store, machine, jobs);

    if (args.has("csv"))
        printClusterCsv(r.clusterIpc);

    std::printf("replayed %s/%s from %s (%u jobs): IPC estimate %.4f  "
                "CI [%.4f, %.4f]  aggregate %.4f\n",
                store.meta().workload.c_str(),
                store.meta().policy.c_str(), path.c_str(), jobs,
                r.estimate.mean, r.estimate.ciLow, r.estimate.ciHigh,
                r.aggregateIpc());
    std::printf("  zero functional re-simulation; store hash %016llx\n",
                static_cast<unsigned long long>(store.storeHash()));
    if (store.meta().estimator.kind !=
        core::SamplingPolicyKind::UniformCluster)
        std::printf("  sampling %s over %llu candidates\n",
                    store.meta().estimator.describe().c_str(),
                    static_cast<unsigned long long>(
                        store.meta().candidateCount));
    std::printf("%s", core::formatRunMetrics(core::runMetrics(r)).c_str());
    return 0;
}

int
cmdRecordTrace(const ArgParser &args)
{
    const auto program = workloadFor(args);
    const std::string out = args.get("out");
    if (out.empty())
        rsr_throw_user("--out is required");
    const auto insts = args.getU64("insts", 1'000'000);
    const auto n = trace::recordTrace(program, insts, out);
    std::printf("recorded %llu instructions to %s\n",
                static_cast<unsigned long long>(n), out.c_str());
    return 0;
}

int
cmdSimTrace(const ArgParser &args)
{
    const std::string path = args.get("trace");
    if (path.empty())
        rsr_throw_user("--trace is required");
    trace::TraceReader reader(path);
    const auto mc = machineFor(args);
    core::Machine machine(mc);
    uarch::OoOCore core(mc.core, machine.hier, machine.bp);
    const auto insts = args.getU64("insts", reader.records());
    const auto r = core.run(reader, insts);
    std::printf("trace %s: %llu insts, %llu cycles, IPC %.4f, "
                "%llu mispredicts\n",
                path.c_str(), static_cast<unsigned long long>(r.insts),
                static_cast<unsigned long long>(r.cycles), r.ipc(),
                static_cast<unsigned long long>(r.branchMispredicts));
    return 0;
}

int
cmdSimPoint(const ArgParser &args)
{
    const auto program = workloadFor(args);
    const auto insts = args.getU64("insts", 2'000'000);
    simpoint::SimPointConfig cfg;
    cfg.intervalSize = args.getU64("interval", 2000);
    cfg.maxK = static_cast<unsigned>(args.getU64("max-k", 30, kUnsignedMax));
    const auto sel = simpoint::pickSimPoints(program, insts, cfg);
    std::printf("selected %u simulation points (interval %llu)\n", sel.k,
                static_cast<unsigned long long>(cfg.intervalSize));
    const auto r = simpoint::runSimPoints(program, sel, args.has("warm"),
                                          machineFor(args));
    std::printf("SimPoint IPC estimate %.4f (%s warm-up, %.2fs)\n", r.ipc,
                args.has("warm") ? "SMARTS" : "no", r.seconds);
    return 0;
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos)
            comma = csv.size();
        if (comma > pos)
            out.push_back(csv.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

int
cmdCompare(const ArgParser &args)
{
    const auto program = workloadFor(args);
    const auto cfg = sampledConfigFor(args);
    const unsigned jobs =
        static_cast<unsigned>(args.getPositiveU64("jobs", 1, kUnsignedMax));

    // Default to the paper's full Table-2 matrix.
    const auto names = args.has("policies") ? splitList(args.get("policies"))
                                            : core::table2PolicyNames();
    if (names.empty())
        rsr_throw_user("--policies got an empty list");

    const auto entries =
        harness::runPolicySweep(program, names, cfg, jobs);

    double true_ipc = 0.0;
    const bool have_true = args.has("true-ipc");
    if (have_true)
        true_ipc = core::runFull(program, cfg.totalInsts,
                                 cfg.machine).ipc();

    if (args.has("csv")) {
        std::printf("policy,cluster,ipc\n");
        for (const auto &e : entries)
            for (std::size_t i = 0; i < e.result.clusterIpc.size(); ++i)
                std::printf("%s,%zu,%.17g\n", e.cliName.c_str(), i,
                            e.result.clusterIpc[i]);
    }

    std::vector<std::string> headers{"policy",  "ipc",     "ci low",
                                     "ci high", "warm upd", "seconds"};
    if (have_true) {
        headers.push_back("err %");
        headers.push_back("ci");
    }
    TextTable t(std::move(headers));
    for (const auto &e : entries) {
        const auto &est = e.result.estimate;
        std::vector<std::string> row{
            e.displayName, TextTable::num(est.mean),
            TextTable::num(est.ciLow), TextTable::num(est.ciHigh),
            std::to_string(e.result.warmWork.totalUpdates()),
            TextTable::num(e.result.seconds, 3)};
        if (have_true) {
            row.push_back(
                TextTable::num(est.relativeError(true_ipc) * 100, 2));
            row.push_back(est.passesCi(true_ipc) ? "pass" : "FAIL");
        }
        t.addRow(std::move(row));
    }
    t.print();
    if (have_true)
        std::printf("true IPC %.4f over %llu instructions\n", true_ipc,
                    static_cast<unsigned long long>(cfg.totalInsts));
    return 0;
}

// Signal plumbing for the long-running commands. Handlers must be
// async-signal-safe: the campaign handler only stores to a lock-free
// atomic that the runner polls; the serve handler only write()s one byte
// to the daemon's wake pipe (notifyWakePipe is a bare write).
std::atomic<bool> g_campaignStop{false};
std::atomic<int> g_serveWakeFd{-1};

extern "C" void
campaignSignalHandler(int)
{
    g_campaignStop.store(true);
}

extern "C" void
serveSignalHandler(int)
{
    const int fd = g_serveWakeFd.load();
    if (fd >= 0)
        rsr::serve::notifyWakePipe(fd);
}

/** RAII: route SIGINT/SIGTERM to @p handler, restoring on scope exit. */
class ScopedSignalHandlers
{
  public:
    explicit ScopedSignalHandlers(void (*handler)(int))
    {
        priorInt_ = std::signal(SIGINT, handler);
        priorTerm_ = std::signal(SIGTERM, handler);
    }

    ~ScopedSignalHandlers()
    {
        std::signal(SIGINT, priorInt_);
        std::signal(SIGTERM, priorTerm_);
    }

    ScopedSignalHandlers(const ScopedSignalHandlers &) = delete;
    ScopedSignalHandlers &operator=(const ScopedSignalHandlers &) = delete;

  private:
    void (*priorInt_)(int);
    void (*priorTerm_)(int);
};

int
cmdCampaign(const ArgParser &args)
{
    harness::CampaignConfig cfg;
    cfg.outDir = args.get("out");
    if (cfg.outDir.empty())
        rsr_throw_user("--out DIR is required");
    cfg.workloads = splitList(args.get("workloads"));
    cfg.policies = splitList(args.get("policies"));
    const bool resume = args.has("resume");
    if (resume && cfg.workloads.empty() && cfg.policies.empty())
        rsr_throw_user("--resume still needs the original --workloads "
                       "and --policies (the manifest fingerprint is "
                       "checked against them)");
    cfg.insts = args.getU64("insts", 300'000);
    cfg.clusters = args.getU64("clusters", 10);
    cfg.clusterSize = args.getU64("cluster-size", 2000);
    cfg.seed = args.getU64("seed", cfg.seed);
    cfg.machine = machineFor(args);
    cfg.sampling = estimatorOptionsFor(args);
    cfg.livepointDir = args.get("livepoints");
    cfg.shards = static_cast<unsigned>(
        args.getPositiveU64("shards", 1, kUnsignedMax));
    cfg.maxRetries =
        static_cast<unsigned>(args.getU64("retries", 2, kUnsignedMax));
    cfg.backoffMs =
        static_cast<unsigned>(args.getU64("backoff-ms", 10, kUnsignedMax));
    cfg.jobTimeoutSec = args.getDouble("timeout", 0.0);
    cfg.faults.seed = args.getU64("fault-seed", 0);
    cfg.faults.ioFailProb = args.getDouble("fault-io", 0.0);
    cfg.faults.corruptProb = args.getDouble("fault-corrupt", 0.0);
    cfg.faults.allocFailProb = args.getDouble("fault-alloc", 0.0);

    // Graceful shutdown: SIGINT/SIGTERM stop dispatching new jobs while
    // in-flight jobs finish and flush their manifest entries, so the
    // campaign directory stays resumable. Forked shard workers inherit
    // the handler; the runner forwards a stop this process gets alone
    // as SIGTERM, and each worker stops on its own copy of the flag.
    g_campaignStop.store(false);
    cfg.stopFlag = &g_campaignStop;

    harness::CampaignRunner runner(cfg);
    const ScopedSignalHandlers guard(campaignSignalHandler);
    const harness::CampaignResult r = runner.run(resume);
    std::printf("campaign %s: %llu jobs, %llu completed, %llu skipped "
                "(already done), %llu failed, %llu transient retries\n",
                cfg.outDir.c_str(),
                static_cast<unsigned long long>(r.total),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.skipped),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.retries));
    if (r.stopped > 0)
        std::printf("  %llu job(s) not completed (stop signal or dead "
                    "shard worker); rerun with --resume to finish them\n",
                    static_cast<unsigned long long>(r.stopped));
    if (r.failed > 0)
        std::printf("  failed jobs are recorded in %s\n",
                    harness::CampaignRunner::manifestPath(cfg.outDir)
                        .c_str());
    return r.exitStatus();
}

int
cmdServe(const ArgParser &args)
{
    serve::ServeConfig cfg;
    cfg.port = static_cast<std::uint16_t>(args.getU64(
        "port", 0, std::numeric_limits<std::uint16_t>::max()));
    cfg.threads = static_cast<unsigned>(
        args.getPositiveU64("threads", 2, kUnsignedMax));
    cfg.queueCapacity = args.getPositiveU64("queue-capacity", 16);
    cfg.shedFillFraction = args.getDouble("shed-fill", 0.75);
    cfg.ioDeadlineSec = args.getDouble("io-timeout", 5.0);
    cfg.requestDeadlineSec = args.getDouble("timeout", 120.0);
    cfg.maxRetries =
        static_cast<unsigned>(args.getU64("retries", 1, kUnsignedMax));
    cfg.backoffMs =
        static_cast<unsigned>(args.getU64("backoff-ms", 5, kUnsignedMax));
    cfg.resultCacheBytes =
        args.getPositiveU64("result-cache-mb", 64, kMaxMegabytes) << 20;
    cfg.storeCacheBytes =
        args.getPositiveU64("store-cache-mb", 256, kMaxMegabytes) << 20;
    cfg.journalPath = args.get("journal");
    cfg.faults.seed = args.getU64("fault-seed", 0);
    cfg.faults.ioFailProb = args.getDouble("fault-io", 0.0);
    cfg.faults.corruptProb = args.getDouble("fault-corrupt", 0.0);
    cfg.faults.allocFailProb = args.getDouble("fault-alloc", 0.0);
    cfg.faults.tornFrameProb = args.getDouble("fault-torn", 0.0);

    const unsigned threads = cfg.threads;
    const std::uint64_t capacity = cfg.queueCapacity;
    const bool journaled = !cfg.journalPath.empty();

    serve::Server server(std::move(cfg));
    server.start();

    // Route SIGINT/SIGTERM through the daemon's wake pipe: the handler
    // write()s one byte, the accept loop sees it and drains gracefully.
    g_serveWakeFd.store(server.wakeFd());
    const ScopedSignalHandlers guard(serveSignalHandler);

    std::printf("rsr_sim serve: listening on 127.0.0.1:%u "
                "(threads %u, queue %llu%s)\n",
                server.port(), threads,
                static_cast<unsigned long long>(capacity),
                journaled ? ", journaled" : "");
    std::fflush(stdout);

    server.serve();
    g_serveWakeFd.store(-1);

    const auto s = server.stats();
    std::printf("rsr_sim serve: drained cleanly\n%s\n",
                s.json().c_str());
    return 0;
}

void
usage()
{
    std::printf(
        "usage: rsr_sim <command> [--flags]\n"
        "  list-workloads\n"
        "  true-ipc     --workload W [--insts N] [--machine scaled|paper]\n"
        "  run          --workload W --policy P [--insts N] [--clusters C]\n"
        "               [--cluster-size S] [--seed X] [--true-ipc] [--csv]\n"
        "               [--jobs N] [sampling flags]\n"
        "               (per-cluster timing replays on N workers;\n"
        "               bit-identical for any --jobs)\n"
        "  sample       alias of run\n"
        "  compare      --workload W [--policies P1,P2,...] [--jobs N]\n"
        "               [run flags] (policy sweep; defaults to the\n"
        "               full Table-2 matrix)\n"
        "  record-trace --workload W --out FILE [--insts N]\n"
        "  sim-trace    --trace FILE [--insts N]\n"
        "  simpoint     --workload W [--insts N] [--interval I] [--max-k K]"
        " [--warm]\n"
        "  mklvpt       --workload W --policy P --out FILE [run flags]\n"
        "               [sampling flags] (producer: run functional\n"
        "               simulation + warming once, write a\n"
        "               content-addressed live-point store)\n"
        "  replay       --store FILE [--jobs N] [--csv] "
        "[--set core.<field>=V]\n"
        "               (consumer: measure straight from the store, zero\n"
        "               functional re-simulation; --workload/--policy/\n"
        "               --sampling + sample flags validate the store is\n"
        "               not stale; estimator stores recompute their\n"
        "               ranked-set / stratified estimate)\n"
        "  campaign     --workloads W1,W2,... --policies P1,P2,... "
        "--out DIR\n"
        "               [--insts N] [--clusters C] [--cluster-size S] "
        "[--seed X]\n"
        "               [--livepoints DIR] [--shards N] [--retries R] "
        "[--backoff-ms MS]\n"
        "               [--timeout SECS] [--resume] [--fault-seed X] "
        "[--fault-io P]\n"
        "               [--fault-corrupt P] [--fault-alloc P] "
        "[sampling flags]\n"
        "               (SIGINT/SIGTERM stop dispatching, let in-flight\n"
        "               jobs finish, and leave a resumable manifest;\n"
        "               --shards N > 1 forks N worker processes over one\n"
        "               claim-locked manifest — a killed worker's jobs\n"
        "               are rerun by --resume, never lost or duplicated)\n"
        "  serve        [--port P] [--threads T] [--queue-capacity N]\n"
        "               [--shed-fill F] [--io-timeout SECS] "
        "[--timeout SECS]\n"
        "               [--retries R] [--backoff-ms MS] "
        "[--result-cache-mb M]\n"
        "               [--store-cache-mb M] [--journal FILE] "
        "[--fault-seed X]\n"
        "               [--fault-io P] [--fault-corrupt P] "
        "[--fault-torn P]\n"
        "               (fault-tolerant simulation daemon on 127.0.0.1;\n"
        "               drive it with rsr_serve_client; SIGTERM drains\n"
        "               gracefully and --journal makes the queue "
        "resumable)\n"
        "examples:\n"
        "  rsr_sim mklvpt --workload gcc --policy rsr40 --out gcc.lvpt\n"
        "  rsr_sim replay --store gcc.lvpt --jobs 4 --csv\n"
        "  rsr_sim replay --store gcc.lvpt --set core.rob_size=256 "
        "--set core.issue_width=8\n"
        "policies (every command): none smarts scache sbp fp<pct>\n"
        "  rsr<pct>[+stale] rcache<pct> rbp mrrl blrl\n"
        "sampling flags (run/mklvpt/replay/campaign):\n"
        "  --sampling uniform|ranked-set|two-phase  estimator policy\n"
        "  --proxy ipc|bbv       cheap rank: functional-IPC proxy or BBV\n"
        "                        centroid distance\n"
        "  --set-size M          ranked-set set size / two-phase\n"
        "                        candidate oversampling (default 4)\n"
        "  --strata H --phase1 P two-phase strata and pilot per stratum\n"
        "  --rank-seed X         seed for set formation and pilot draws\n"
        "each command refuses the flags it does not read; only --set\n"
        "may be repeated (every setting applies, in order)\n"
        "exit status: 0 ok, 1 fatal, 2 campaign partially complete\n");
}

using Flags = std::set<std::string>;

Flags
operator+(Flags a, const Flags &b)
{
    a.insert(b.begin(), b.end());
    return a;
}

const Flags kMachineFlags{"machine", "config", "set"};
/** What sampledConfigFor() reads. */
const Flags kSampledFlags =
    kMachineFlags + Flags{"insts", "clusters", "cluster-size", "seed"};
const Flags kSamplingFlags{"sampling", "proxy",  "set-size",
                           "strata",   "phase1", "rank-seed"};
const Flags kFaultFlags{"fault-seed", "fault-io", "fault-corrupt",
                        "fault-alloc"};

/** A command: its handler and exactly the flags it reads. */
struct Command
{
    std::string name;
    int (*handler)(const ArgParser &);
    Flags flags;
};

const std::vector<Command> &
commands()
{
    const Flags run = kSampledFlags + Flags{"workload", "policy"};
    static const std::vector<Command> table{
        {"list-workloads", cmdListWorkloads, {}},
        {"true-ipc", cmdTrueIpc,
         kMachineFlags + Flags{"workload", "insts", "stats"}},
        {"run", cmdRun,
         run + kSamplingFlags + Flags{"jobs", "csv", "true-ipc"}},
        {"compare", cmdCompare,
         kSampledFlags +
             Flags{"workload", "policies", "jobs", "csv", "true-ipc"}},
        {"mklvpt", cmdMkLvpt, run + kSamplingFlags + Flags{"out"}},
        {"replay", cmdReplay,
         run + kSamplingFlags + Flags{"store", "jobs", "csv"}},
        {"record-trace", cmdRecordTrace, {"workload", "out", "insts"}},
        {"sim-trace", cmdSimTrace, kMachineFlags + Flags{"trace", "insts"}},
        {"simpoint", cmdSimPoint,
         kMachineFlags +
             Flags{"workload", "insts", "interval", "max-k", "warm"}},
        {"campaign", cmdCampaign,
         kSampledFlags + kSamplingFlags + kFaultFlags +
             Flags{"workloads", "policies", "out", "livepoints", "resume",
                   "shards", "retries", "backoff-ms", "timeout"}},
        {"serve", cmdServe,
         kFaultFlags + Flags{"port", "threads", "queue-capacity",
                             "shed-fill", "io-timeout", "timeout",
                             "retries", "backoff-ms", "result-cache-mb",
                             "store-cache-mb", "journal", "fault-torn"}},
    };
    return table;
}

/**
 * Refuse every flag @p cmd does not read, naming the nearest flag it
 * does and the commands that take the refused one.
 */
void
requireCommandFlags(const ArgParser &args, const Command &cmd)
{
    for (const std::string &flag : args.unknownFlags(cmd.flags)) {
        std::ostringstream msg;
        msg << cmd.name << " does not take --" << flag;
        const std::string near = nearestName(flag, cmd.flags);
        if (!near.empty())
            msg << " (did you mean --" << near << "?)";
        std::vector<std::string> takers;
        for (const Command &other : commands())
            if (other.flags.count(flag))
                takers.push_back(other.name);
        for (std::size_t i = 0; i < takers.size(); ++i)
            msg << (i == 0                   ? "; it applies to "
                    : i + 1 < takers.size() ? ", "
                                            : " and ")
                << takers[i];
        rsr_throw_user(msg.str());
    }
}

int
dispatch(const ArgParser &args)
{
    if (args.has("help")) {
        usage();
        return 0;
    }
    // `sample` is an alias of run.
    const std::string name =
        args.command() == "sample" ? "run" : args.command();
    for (const Command &cmd : commands()) {
        if (cmd.name != name)
            continue;
        requireCommandFlags(args, cmd);
        return cmd.handler(args);
    }
    usage();
    return name.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Library code throws the SimError taxonomy; the CLI is the one
    // place where errors become an exit code.
    try {
        const ArgParser args(argc, argv);
        return dispatch(args);
    } catch (const SimError &e) {
        std::fprintf(stderr, "fatal [%s]: %s\n",
                     errorKindName(e.kind()), e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
}
