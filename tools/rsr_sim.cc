/**
 * @file
 * The rsr-sim command-line driver: one binary exposing the library's
 * main flows for interactive use and scripting. `rsr_sim --help` lists
 * every command with exactly the flags it takes; both come from the
 * command table at the end of this file.
 */

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <limits>
#include <string>
#include <type_traits>
#include <variant>
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
#include "util/fault.hh"
#include "util/fileio.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "workload/synthetic.hh"

namespace
{

using namespace rsr;

constexpr std::uint64_t kUnsignedMax = std::numeric_limits<unsigned>::max();
/** The most threads `--jobs` or `--threads` may start; more is refused. */
constexpr std::uint64_t kMaxThreads = 256;
/** The largest `--*-mb` value whose byte count fits in 64 bits. */
constexpr std::uint64_t kMaxMegabytes =
    std::numeric_limits<std::uint64_t>::max() >> 20;

/** What machineFor() reads. */
const Flags kMachineFlags{
    {"machine", "scaled|paper"}, {"config", "FILE"}, {"set", "KEY=V"}};
/** What sampledConfigFor() reads. */
const Flags kSampledFlags =
    kMachineFlags + Flags{{"insts", "N"}, {"clusters", "C"},
                          {"cluster-size", "S"}, {"seed", "X"}};
/** What estimatorOptionsFor() reads. */
const Flags kSamplingFlags{{"sampling", "uniform|ranked-set|two-phase"},
                           {"proxy", "ipc|bbv"}, {"set-size", "M"},
                           {"strata", "H"}, {"phase1", "P"},
                           {"rank-seed", "X"}};
/** What faultConfigFor() reads. */
const Flags kFaultFlags{{"fault-seed", "X"}, {"fault-io", "P"},
                        {"fault-corrupt", "P"}, {"fault-alloc", "P"}};

/** @p mc with the `--config` file (when given) and then every `--set
 *  key=value` option, in order, applied; the resolved machine is
 *  checked. */
core::MachineConfig
withMachineFlags(const ArgParser &args, core::MachineConfig mc)
{
    if (args.has("config"))
        mc = core::loadMachineConfig(args.get("config"), mc);
    for (const std::string &setting : args.getAll("set"))
        core::applyMachineSetting(mc, setting);
    core::checkMachine(mc);
    return mc;
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
    return withMachineFlags(args,
                            core::baseMachine(args.get("machine", "scaled")));
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
    const unsigned jobs =
        static_cast<unsigned>(args.getPositiveU64("jobs", 1, kMaxThreads));
    const auto program = workloadFor(args);
    const auto cfg = sampledConfigFor(args);
    const auto opts = estimatorOptionsFor(args);
    const std::string policy_name = args.get("policy", "rsr20");

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
                    static_cast<unsigned long long>(
                        core::estimatorCandidateCount(
                            cfg.regimen.numClusters, opts)),
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
                        core::estimatorCandidateCount(
                            cfg.regimen.numClusters, opts)));

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
    const unsigned jobs =
        static_cast<unsigned>(args.getPositiveU64("jobs", 1, kMaxThreads));
    const std::string path = args.get("store");
    if (path.empty())
        rsr_throw_user("--store FILE is required (create one with: "
                       "rsr_sim mklvpt --workload W --policy P --out "
                       "FILE)");
    if (!fileExists(path))
        rsr_throw_user("live-point store ", path, " does not exist; "
                       "create it with: rsr_sim mklvpt --workload W "
                       "--policy P --out ", path);
    // With --workload/--policy/--sampling given, the flags describe a
    // run: the store must hold its capture (a stale store is an error,
    // never silently replayed) and the replay runs under its machine,
    // exactly as `run` with the same flags. Without them, the replay
    // runs under the store's capture machine plus any --config and
    // --set, and a flag that only describes a run is refused rather
    // than ignored.
    const bool validated = args.has("workload") || args.has("policy") ||
                           args.has("sampling");
    // Every run flag but --config and --set (they adjust the store's
    // machine) describes the run.
    if (!validated)
        for (const Flag &flag : kSampledFlags + kSamplingFlags)
            if (flag.name != "config" && flag.name != "set" &&
                flag.name != "sampling" && args.has(flag.name))
                rsr_throw_user("replay takes --", flag.name,
                               " only with --workload, --policy or "
                               "--sampling (it describes the run the "
                               "store is checked against)");
    const auto store = core::LivePointStore::loadFile(path);

    auto machine = store.meta().machine;
    if (validated) {
        const std::string workload =
            args.get("workload", store.meta().workload);
        const std::string policy_name =
            args.get("policy", store.meta().policy);
        const auto opts = estimatorOptionsFor(args);
        const auto cfg = sampledConfigFor(args);
        const std::uint64_t want = core::LivePointStore::configHash(
            workload, policy_name, cfg, opts);
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
        machine = withMachineFlags(args, machine);
    }

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
    const core::LivePointStore::Metadata &meta = store.meta();
    if (meta.estimator.kind != core::SamplingPolicyKind::UniformCluster)
        std::printf("  sampling %s over %llu candidates\n",
                    meta.estimator.describe().c_str(),
                    static_cast<unsigned long long>(
                        core::estimatorCandidateCount(
                            meta.regimen.numClusters, meta.estimator)));
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

int
cmdCompare(const ArgParser &args)
{
    const unsigned jobs =
        static_cast<unsigned>(args.getPositiveU64("jobs", 1, kMaxThreads));
    const auto program = workloadFor(args);
    const auto cfg = sampledConfigFor(args);

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

    // The sweep's columns are run-table rows, under their run-table
    // names.
    const std::vector<std::string> columns{"ipc", "ci_low", "ci_high",
                                           "warm.updates", "seconds"};
    std::vector<std::string> headers{"policy"};
    headers.insert(headers.end(), columns.begin(), columns.end());
    if (have_true) {
        headers.push_back("err %");
        headers.push_back("ci");
    }
    TextTable t(std::move(headers));
    for (const auto &e : entries) {
        const auto &est = e.result.estimate;
        const auto metrics = core::runMetrics(e.result);
        std::vector<std::string> row{e.displayName};
        for (const std::string &name : columns) {
            const auto m = std::find_if(
                metrics.begin(), metrics.end(),
                [&](const core::RunMetric &r) { return name == r.name; });
            rsr_assert(m != metrics.end(), "no run metric ", name);
            row.push_back(std::visit(
                [](auto v) {
                    if constexpr (std::is_same_v<decltype(v), double>)
                        return TextTable::num(v);
                    else
                        return std::to_string(v);
                },
                m->value));
        }
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

/** The fault classes campaign and serve inject. */
FaultConfig
faultConfigFor(const ArgParser &args)
{
    FaultConfig faults;
    faults.seed = args.getU64("fault-seed", 0);
    faults.ioFailProb = args.getDouble("fault-io", 0.0);
    faults.corruptProb = args.getDouble("fault-corrupt", 0.0);
    faults.allocFailProb = args.getDouble("fault-alloc", 0.0);
    return faults;
}

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
    cfg.faults = faultConfigFor(args);

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
        args.getPositiveU64("threads", 2, kMaxThreads));
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
    cfg.faults = faultConfigFor(args);
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

const Program &
program()
{
    const Flags run =
        Flags{{"workload", "W"}, {"policy", "P"}} + kSampledFlags;
    const Flags output{{"jobs", "N"}, {"csv", ""}, {"true-ipc", ""}};
    static const Program rsr_sim{
        "rsr_sim",
        {
            {"list-workloads", "the synthetic workloads and their shapes",
             {}, cmdListWorkloads},
            {"true-ipc", "full-detail reference IPC (--stats: counters)",
             Flags{{"workload", "W"}, {"insts", "N"}, {"stats", ""}} +
                 kMachineFlags,
             cmdTrueIpc},
            {"run", "the sampled run, bit-identical for any --jobs",
             run + kSamplingFlags + output, cmdRun, "sample"},
            {"compare", "Table-2 policy sweep (default: all 16 policies)",
             Flags{{"workload", "W"}, {"policies", "P1,P2,..."}} +
                 kSampledFlags + output,
             cmdCompare},
            {"mklvpt",
             "producer: simulate and warm once, write a live-point store",
             Flags{{"out", "FILE"}} + run + kSamplingFlags, cmdMkLvpt},
            {"replay",
             "consumer: measure from a store, no functional simulation",
             Flags{{"store", "FILE"}, {"jobs", "N"}, {"csv", ""}} + run +
                 kSamplingFlags,
             cmdReplay},
            {"record-trace", "record a workload's committed instructions",
             {{"workload", "W"}, {"out", "FILE"}, {"insts", "N"}},
             cmdRecordTrace},
            {"sim-trace", "time a recorded trace on the out-of-order core",
             Flags{{"trace", "FILE"}, {"insts", "N"}} + kMachineFlags,
             cmdSimTrace},
            {"simpoint",
             "SimPoint selection and estimate (--warm: SMARTS warm-up)",
             Flags{{"workload", "W"}, {"insts", "N"}, {"interval", "I"},
                   {"max-k", "K"}, {"warm", ""}} +
                 kMachineFlags,
             cmdSimPoint},
            {"campaign",
             "resumable workload x policy matrix, one artifact per job",
             Flags{{"workloads", "W1,W2,..."}, {"policies", "P1,P2,..."},
                   {"out", "DIR"}, {"livepoints", "DIR"}, {"resume", ""},
                   {"shards", "N"}, {"retries", "R"}, {"backoff-ms", "MS"},
                   {"timeout", "SECS"}} +
                 kSampledFlags + kSamplingFlags + kFaultFlags,
             cmdCampaign},
            {"serve", "simulation daemon on 127.0.0.1 for rsr_serve_client",
             Flags{{"port", "P"}, {"threads", "T"},
                   {"queue-capacity", "N"}, {"shed-fill", "F"},
                   {"io-timeout", "SECS"}, {"timeout", "SECS"},
                   {"retries", "R"}, {"backoff-ms", "MS"},
                   {"result-cache-mb", "M"}, {"store-cache-mb", "M"},
                   {"journal", "FILE"}} +
                 kFaultFlags + Flags{{"fault-torn", "P"}},
             cmdServe},
        },
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
        "replay: --config and --set adjust the store's machine; with\n"
        "  --workload, --policy or --sampling the run flags check that the\n"
        "  store is not stale, and the other run flags need one of them\n"
        "compare: one functional pass feeds every policy; a policy's\n"
        "  seconds is its own wall time plus 1/N of that pass (N\n"
        "  policies), so the column sums to the sweep's work\n"
        "campaign: SIGINT/SIGTERM let in-flight jobs finish and leave a\n"
        "  resumable manifest; --shards N forks N workers over it\n"
        "serve: SIGTERM drains; --journal makes the queue resumable\n"
        "only --set may be repeated (every setting applies, in order)\n"
        "examples:\n"
        "  rsr_sim mklvpt --workload gcc --policy rsr40 --out gcc.lvpt\n"
        "  rsr_sim replay --store gcc.lvpt --jobs 4 --csv\n"
        "  rsr_sim replay --store gcc.lvpt --set core.rob_size=256 "
        "--set core.issue_width=8\n"
        "exit status: 0 ok, 1 fatal, 2 campaign partially complete\n"};
    return rsr_sim;
}

} // namespace

int
main(int argc, char **argv)
{
    return runProgram(program(), argc, argv);
}
