/**
 * @file
 * The four benchmark workloads. Each drives one path users run through
 * the library's public entry points, checks every result for identity
 * against a reference, and reports accuracy on fixed reference schedules
 * so the figure does not move with the seed.
 */

#include <poll.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

#include "bench_common.hh"
#include "core/config_file.hh"
#include "core/livepoint_store.hh"
#include "harness/json.hh"
#include "harness/parallel_run.hh"
#include "harness/thread_pool.hh"
#include "perfbench.hh"
#include "serve/daemon.hh"
#include "serve/net_io.hh"
#include "util/checksum.hh"
#include "util/deadline.hh"
#include "util/error.hh"
#include "util/random.hh"
#include "workload/synthetic.hh"

namespace rsr::perfbench
{

bool
sameRun(const char *what, const core::SampledResult &replica,
        const core::SampledResult &direct)
{
    const core::WarmupWork &a = replica.warmWork;
    const core::WarmupWork &b = direct.warmWork;
    const bool same = sameTiming(what, replica, direct) &&
                      replica.skippedInsts == direct.skippedInsts &&
                      a.functionalUpdates == b.functionalUpdates &&
                      a.reconstructionUpdates == b.reconstructionUpdates &&
                      a.loggedRecords == b.loggedRecords &&
                      a.peakLogBytes == b.peakLogBytes;
    if (!same)
        std::fprintf(stderr, "perfbench: %s: warm-up work differs\n", what);
    return same;
}

bool
sameTiming(const char *what, const core::SampledResult &replica,
           const core::SampledResult &direct)
{
    const bool same = replica.clusterIpc == direct.clusterIpc &&
                      replica.hotCycles == direct.hotCycles &&
                      replica.hotInsts == direct.hotInsts &&
                      replica.branchMispredicts == direct.branchMispredicts;
    if (!same)
        std::fprintf(stderr,
                     "perfbench: %s: timing differs (%zu vs %zu clusters, "
                     "%llu vs %llu cycles)\n",
                     what, replica.clusterIpc.size(),
                     direct.clusterIpc.size(),
                     static_cast<unsigned long long>(replica.hotCycles),
                     static_cast<unsigned long long>(direct.hotCycles));
    return same;
}

core::SampledResult
directRun(const RunSpec &spec, unsigned jobs)
{
    const auto policy = core::makePolicyByName(spec.policy);
    return harness::runSampledParallel(*spec.program, *policy, spec.config,
                                       jobs);
}

namespace
{

/** The paper's full Table-2 policy list as `rsr_sim compare` names. */
const std::vector<std::string> &
table2Policies()
{
    static const std::vector<std::string> names{
        "none",     "fp20",     "fp40",      "fp80",  "scache", "sbp",
        "smarts",   "rcache20", "rcache40",  "rcache80",
        "rcache100", "rbp",     "rsr20",     "rsr40", "rsr80",  "rsr100"};
    return names;
}

/** Fixed per-profile schedule seed used for the accuracy figures. */
std::uint64_t
referenceScheduleSeed(const std::string &profile)
{
    return 0x5eed0000 + fnv64(profile.data(), profile.size()) % 0xffff;
}

/** Run every task on a kJobs-worker pool and wait for all of them. */
void
runParallel(const std::vector<std::function<void()>> &tasks)
{
    harness::ThreadPool pool(kJobs);
    for (const auto &task : tasks)
        pool.submit(task);
    pool.wait();
}

/** Scaled machine, @p total_insts population, the given schedule. */
core::SampledConfig
scaledConfig(std::uint64_t total_insts, core::SamplingRegimen regimen,
             std::uint64_t schedule_seed)
{
    core::SampledConfig cfg;
    cfg.totalInsts = total_insts;
    cfg.regimen = regimen;
    cfg.scheduleSeed = schedule_seed;
    cfg.machine = core::MachineConfig::scaledDefault();
    return cfg;
}

/** core::runFull() IPC over the spec's population. */
double
trueIpc(const RunSpec &spec)
{
    return core::runFull(*spec.program, spec.config.totalInsts,
                         spec.config.machine)
        .ipc();
}

/**
 * RSR (@p rsr_specs' policy) against @p true_ipc and against SMARTS, on
 * each profile's reference schedule; means over the profiles, percent.
 */
Accuracy
measureAccuracy(const std::vector<RunSpec> &rsr_specs,
                const std::vector<double> &true_ipc)
{
    // Direct runs of the RSR policy and of SMARTS (S$BP) on each
    // profile's fixed reference schedule.
    const std::size_t n = rsr_specs.size();
    std::vector<core::SampledResult> rsr(n), smarts(n);
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < n; ++i) {
        RunSpec spec = rsr_specs[i];
        spec.config.scheduleSeed = referenceScheduleSeed(spec.profile);
        tasks.push_back([spec, &rsr, i] { rsr[i] = directRun(spec, 1); });
        spec.policy = "smarts";
        tasks.push_back(
            [spec, &smarts, i] { smarts[i] = directRun(spec, 1); });
    }
    runParallel(tasks);

    Accuracy acc;
    for (std::size_t i = 0; i < n; ++i) {
        const double r = rsr[i].estimate.mean;
        const double s = smarts[i].estimate.mean;
        acc.relErrPct += 100.0 * std::fabs(r - true_ipc[i]) / true_ipc[i];
        acc.gapPct += 100.0 * std::fabs(r - s) / s;
    }
    acc.relErrPct /= static_cast<double>(n);
    acc.gapPct /= static_cast<double>(n);
    return acc;
}

/** Programs of served requests, built once per process. */
const func::Program &
sharedProgram(const std::string &profile)
{
    static std::mutex mu;
    static std::map<std::string, std::unique_ptr<func::Program>> built;
    std::lock_guard<std::mutex> lock(mu);
    auto &slot = built[profile];
    if (!slot)
        slot = std::make_unique<func::Program>(workload::buildSynthetic(
            workload::standardWorkloadParams(profile)));
    return *slot;
}

/** Build the programs of @p profiles, timing the builds. */
std::map<std::string, std::unique_ptr<func::Program>>
buildPrograms(const std::vector<std::string> &profiles, double *seconds)
{
    const double t0 = nowSeconds();
    std::map<std::string, std::unique_ptr<func::Program>> out;
    for (const std::string &p : profiles)
        out[p] = std::make_unique<func::Program>(workload::buildSynthetic(
            workload::standardWorkloadParams(p)));
    *seconds = nowSeconds() - t0;
    return out;
}

/** Run @p body, turning a typed simulator failure into a failed op. */
template <typename F>
bool
guarded(Report &report, const char *what, F &&body)
{
    try {
        return body();
    } catch (const SimError &e) {
        report.fail(std::string(what) + ": [" + errorKindName(e.kind()) +
                    "] " + e.what());
        return false;
    }
}

// ---- table2: the `rsr_sim compare` Table-2 matrix ----------------------

class Table2 final : public Workload
{
  public:
    explicit Table2(std::uint64_t seed) : seed(seed) {}

    void
    setup() override
    {
        programs = buildPrograms(profiles, &buildSeconds_);
        specs.clear();
        for (const std::string &p : profiles)
            specs.push_back({p, "rsr20", programs[p].get(),
                             scaledConfig(bench::defaultTotalInsts,
                                          bench::regimenFor(p),
                                          deriveSeed(seed, specs.size()))});
        truth.assign(specs.size(), 0.0);
        std::vector<std::function<void()>> tasks;
        for (std::size_t i = 0; i < specs.size(); ++i)
            tasks.push_back([this, i] { truth[i] = trueIpc(specs[i]); });
        runParallel(tasks);
        first.assign(specs.size(), {});
    }

    std::size_t roundSize() const override { return specs.size(); }
    unsigned traceRounds() const override { return 1; }

    bool
    op(std::size_t i, Report &report, std::vector<double> &units) override
    {
        return guarded(report, "table2 sweep", [&] {
            const RunSpec &s = specs[i % specs.size()];
            auto entries = harness::runPolicySweep(
                *s.program, table2Policies(), s.config, kJobs);
            std::vector<core::SampledResult> results;
            for (auto &e : entries) {
                units.push_back(e.result.seconds);
                results.push_back(std::move(e.result));
            }
            return commit(i % specs.size(), std::move(results), report);
        });
    }

    bool
    tracedOp(std::size_t i, Tracer &tracer, Report &report) override
    {
        // Replica of runPolicySweep: one bench pool task per policy,
        // each running the deferred pipeline serially on its worker.
        return guarded(report, "table2 traced sweep", [&] {
            const RunSpec &s = specs[i % specs.size()];
            const std::uint64_t op_span = traceContext().span;
            const std::size_t n = table2Policies().size();
            std::vector<core::SampledResult> results(n);
            auto pool = startPool(tracer);
            for (std::size_t k = 0; k < n; ++k) {
                RunSpec spec = s;
                spec.policy = table2Policies()[k];
                submitTraced(tracer, *pool, op_span, 1,
                             [&tracer, &results, spec, k](int) {
                                 results[k] =
                                     tracedSampledRun(tracer, spec, nullptr);
                             });
            }
            {
                Tracer::Scope wait(&tracer, "harness.pool.wait");
                pool->wait();
            }
            stopPool(tracer, pool);
            Tracer::Scope check(&tracer, "perfbench.check");
            return commit(i % specs.size(), std::move(results), report);
        });
    }

    void
    check(Report &report) override
    {
        // The sweep's pool-of-policies path against the cluster-parallel
        // direct run of the same policy.
        for (std::size_t p = 0; p < specs.size(); ++p)
            for (const char *name : {"rsr20", "smarts"}) {
                const auto &names = table2Policies();
                const std::size_t k = static_cast<std::size_t>(
                    std::find(names.begin(), names.end(), name) -
                    names.begin());
                RunSpec spec = specs[p];
                spec.policy = name;
                const bool ok = guarded(report, "table2 direct", [&] {
                    return sameRun("table2 sweep vs direct", first[p][k],
                                   directRun(spec, kJobs));
                });
                report.attempt(ok);
                if (!ok)
                    report.fail("table2 sweep differs from the direct run "
                                "of " + spec.profile + "/" + name);
            }
    }

    Accuracy
    accuracy(Report &) override
    {
        return measureAccuracy(specs, truth);
    }

    std::vector<RunSpec> populations() const override { return specs; }

  private:
    /** Every repeat of a profile's sweep must equal its first. */
    bool
    commit(std::size_t p, std::vector<core::SampledResult> results,
           Report &report)
    {
        if (first[p].empty()) {
            first[p] = std::move(results);
            return true;
        }
        for (std::size_t k = 0; k < results.size(); ++k)
            if (!sameRun("table2 repeat", results[k], first[p][k])) {
                report.fail("table2 " + specs[p].profile + "/" +
                            table2Policies()[k] + " changed between runs");
                return false;
            }
        return true;
    }

    const std::vector<std::string> profiles{"twolf", "gcc", "mcf"};
    std::uint64_t seed;
    std::map<std::string, std::unique_ptr<func::Program>> programs;
    std::vector<RunSpec> specs;
    std::vector<double> truth;
    std::vector<std::vector<core::SampledResult>> first;
};

// ---- design_sweep: capture once, replay a core design grid -------------

class DesignSweep final : public Workload
{
  public:
    explicit DesignSweep(std::uint64_t seed) : seed(seed)
    {
        for (unsigned rob : {32u, 64u, 128u})
            for (unsigned width : {2u, 4u, 8u})
                grid.push_back({rob, width});
    }

    void
    setup() override
    {
        programs = buildPrograms({"gcc", "mcf"}, &buildSeconds_);
        specs = {{"gcc", "rsr40", programs["gcc"].get(),
                  scaledConfig(4'000'000, {60, 3000}, deriveSeed(seed, 2))},
                 {"mcf", "smarts", programs["mcf"].get(),
                  scaledConfig(4'000'000, {60, 3000}, deriveSeed(seed, 2))}};
        // The producer pass (LivePointStore::create + serialize), the
        // direct runs it must reproduce, and the true IPC per profile.
        truth.assign(2, 0.0);
        direct.assign(2, {});
        bytes.assign(2, {});
        std::vector<std::function<void()>> tasks;
        for (std::size_t s = 0; s < 2; ++s) {
            tasks.push_back([this, s] { truth[s] = trueIpc(specs[s]); });
            tasks.push_back([this, s] { direct[s] = directRun(specs[s], 1); });
            tasks.push_back([this, s] {
                const auto policy = core::makePolicyByName(specs[s].policy);
                bytes[s] = core::LivePointStore::create(
                               *specs[s].program, *policy, specs[s].config,
                               specs[s].profile, specs[s].policy)
                               .serialize();
            });
        }
        runParallel(tasks);
        first.assign(2 * grid.size(), {});
        store.reset();
    }

    std::size_t roundSize() const override { return 2 * grid.size(); }

    bool
    op(std::size_t i, Report &report, std::vector<double> &) override
    {
        return guarded(report, "design point", [&] {
            const std::size_t s = (i / grid.size()) % 2;
            if (i % grid.size() == 0) {
                store.reset();
                store = std::make_unique<core::LivePointStore>(
                    core::LivePointStore::deserialize(bytes[s]));
            }
            return commit(i, harness::replayStoreParallel(
                                 *store, machineAt(i), kJobs),
                          report);
        });
    }

    bool
    tracedOp(std::size_t i, Tracer &tracer, Report &report) override
    {
        return guarded(report, "traced design point", [&] {
            const std::size_t s = (i / grid.size()) % 2;
            if (i % grid.size() == 0) {
                tracer.count("core.store.open.bytes",
                             static_cast<double>(bytes[s].size()));
                store.reset();
                Tracer::Scope open(&tracer, "core.store.open");
                store = std::make_unique<core::LivePointStore>(
                    core::LivePointStore::deserialize(bytes[s]));
            }
            auto pool = startPool(tracer);
            core::SampledResult r =
                tracedStoreReplay(tracer, *store, machineAt(i), *pool);
            stopPool(tracer, pool);
            Tracer::Scope check(&tracer, "perfbench.check");
            return commit(i, std::move(r), report);
        });
    }

    void
    tracedPrologue(Tracer &tracer, Report &report) override
    {
        // The producer half, traced through the replica pipeline: it must
        // equal the direct run the store was checked against.
        for (std::size_t s = 0; s < 2; ++s) {
            tracer.beginOp();
            const bool ok = guarded(report, "traced capture", [&] {
                Tracer::Scope op(&tracer, "capture");
                auto pool = startPool(tracer);
                const core::SampledResult r =
                    tracedSampledRun(tracer, specs[s], pool.get());
                stopPool(tracer, pool);
                return sameRun("traced capture run", r, direct[s]);
            });
            report.attempt(ok);
            if (!ok)
                report.fail("traced capture replica differs for " +
                            specs[s].profile);
            countStore(tracer, core::LivePointStore::deserialize(bytes[s]));
        }
    }

    void check(Report &) override {}

    Accuracy
    accuracy(Report &) override
    {
        RunSpec mcf = specs[1];
        mcf.policy = "rsr40";
        return measureAccuracy({specs[0], mcf}, truth);
    }

    bool crossesStore() const override { return true; }
    std::vector<RunSpec> populations() const override { return specs; }

  private:
    struct GridPoint
    {
        unsigned rob;
        unsigned width;
    };

    core::MachineConfig
    machineAt(std::size_t i) const
    {
        const GridPoint &g = grid[i % grid.size()];
        core::MachineConfig m = core::MachineConfig::scaledDefault();
        core::applyMachineOption(m, "core.rob_size", std::to_string(g.rob));
        core::applyMachineOption(m, "core.issue_width",
                                 std::to_string(g.width));
        return m;
    }

    /** The capture-config point equals the direct run; every other
     *  point equals its own first replay. */
    bool
    commit(std::size_t i, core::SampledResult r, Report &report)
    {
        const std::size_t s = (i / grid.size()) % 2;
        const std::size_t slot = i % (2 * grid.size());
        const GridPoint &g = grid[i % grid.size()];
        const uarch::CoreParams base;
        if (g.rob == base.robSize && g.width == base.issueWidth &&
            !sameTiming("replay vs direct", r, direct[s])) {
            report.fail("store replay of " + specs[s].profile +
                        " differs from the direct run");
            return false;
        }
        if (first[slot].clusterIpc.empty()) {
            first[slot] = std::move(r);
            return true;
        }
        if (!sameTiming("replay repeat", r, first[slot])) {
            report.fail("design point replay changed between runs");
            return false;
        }
        return true;
    }

    std::uint64_t seed;
    std::vector<GridPoint> grid;
    std::map<std::string, std::unique_ptr<func::Program>> programs;
    std::vector<RunSpec> specs;
    std::vector<double> truth;
    std::vector<core::SampledResult> direct;
    std::vector<std::vector<std::uint8_t>> bytes;
    std::vector<core::SampledResult> first;
    std::unique_ptr<core::LivePointStore> store;
};

// ---- serve_mix: one closed-loop client against the daemon --------------

class ServeMix final : public Workload
{
  public:
    explicit ServeMix(std::uint64_t seed) : seed(seed) {}

    void
    setup() override
    {
        // The daemon builds its own programs; these serve the direct runs.
        const double t0 = nowSeconds();
        for (const char *p : {"gcc", "twolf"})
            sharedProgram(p);
        buildSeconds_ = nowSeconds() - t0;
        const auto cat = RequestStream::catalogue();
        truth.assign(cat.size(), 0.0);
        std::vector<std::function<void()>> tasks;
        for (std::size_t i = 0; i < cat.size(); ++i)
            tasks.push_back([this, &cat, i] {
                truth[i] = trueIpc(ServeSession::directSpec(cat[i]));
            });
        runParallel(tasks);
        session = std::make_unique<ServeSession>(seed);
        session->start();
    }

    std::size_t roundSize() const override { return RequestStream::blockSize; }
    unsigned traceRounds() const override { return 10; }

    bool
    op(std::size_t, Report &report, std::vector<double> &) override
    {
        return session->request(nullptr, report);
    }

    bool
    tracedOp(std::size_t i, Tracer &tracer, Report &report) override
    {
        // A fresh daemon replaying the same stream: every reply must
        // match the untraced one at the same position.
        if (i == 0) {
            untraced = session->replies();
            session = std::make_unique<ServeSession>(seed);
            session->start();
        }
        const bool ok = session->request(&tracer, report);
        const auto &now = session->replies();
        if (ok && i < untraced.size() && now[i] != untraced[i]) {
            report.fail("traced serve reply differs at request " +
                        std::to_string(i));
            return false;
        }
        return ok;
    }

    void
    tracedEpilogue(Tracer &tracer, Report &report) override
    {
        session->stop();
        session->countLayers(tracer);
        session->verify(report);
    }

    void
    check(Report &report) override
    {
        session->stop();
        std::fprintf(stderr, "perfbench: %s\n", session->tierMix().c_str());
        session->verify(report);
    }

    Accuracy
    accuracy(Report &report) override
    {
        return session->accuracy(truth, report);
    }

    bool crossesPipeline() const override { return false; }
    bool crossesServe() const override { return true; }

    std::vector<RunSpec> populations() const override
    {
        std::vector<RunSpec> out;
        for (const auto &r : RequestStream::catalogue())
            if (r.policy == "rsr40")
                out.push_back(ServeSession::directSpec(r));
        return out;
    }

  private:
    std::uint64_t seed;
    std::vector<double> truth;
    std::unique_ptr<ServeSession> session;
    std::vector<std::string> untraced;
};

} // namespace

// ---- serve session -----------------------------------------------------

RequestStream::RequestStream(std::uint64_t seed)
    : seed(seed), rng(deriveSeed(seed, 0x5e7e)), answered(catalogue()),
      captures(catalogue()), warmCount(captures.size(), 0)
{
}

std::vector<serve::SimRequest>
RequestStream::catalogue()
{
    std::vector<serve::SimRequest> out;
    for (const char *w : {"gcc", "twolf"})
        for (const char *p : {"rsr40", "smarts"}) {
            serve::SimRequest r;
            r.workload = w;
            r.policy = p;
            r.insts = 400'000;
            r.clusters = 10;
            r.clusterSize = 2000;
            out.push_back(r);
        }
    return out;
}

serve::SimRequest
RequestStream::next()
{
    if (blockPos == block.size()) {
        block.assign(blockSize, 'h');
        std::fill_n(block.begin(), warmPerBlock + coldPerBlock, 'w');
        std::fill_n(block.begin(), coldPerBlock, 'c');
        for (std::size_t k = block.size() - 1; k > 0; --k)
            std::swap(block[k], block[rng.below(k + 1)]);
        blockPos = 0;
    }
    const char kind = block[blockPos++];
    serve::SimRequest r;
    if (kind == 'h') {
        r = answered[rng.below(answered.size())];
    } else if (kind == 'w') {
        const std::size_t recent =
            std::min<std::size_t>(captures.size(), warmRecent);
        const std::size_t c = captures.size() - 1 - rng.below(recent);
        const unsigned k = warmCount[c]++;
        r = captures[c];
        r.overrides = {"core.issue_width=" + std::to_string(3 + (k / 32) % 3),
                       "core.rob_size=" + std::to_string(56 + 2 * (k % 32))};
        answered.push_back(r);
    } else {
        // Cold captures cycle through the catalogue so every run
        // captures each profile and policy equally often.
        const auto cat = catalogue();
        r = cat[(coldCount + seed) % cat.size()];
        r.seed = deriveSeed(seed, 1000 + coldCount++);
        captures.push_back(r);
        warmCount.push_back(0);
        answered.push_back(r);
    }
    return r;
}

RunSpec
ServeSession::directSpec(const serve::SimRequest &r)
{
    // The daemon's own mapping: the scaled machine, capture overrides,
    // then the timing-only `core.*` overrides on top.
    RunSpec spec{r.workload, r.policy, nullptr,
                 scaledConfig(r.insts, {r.clusters, r.clusterSize}, r.seed)};
    for (const auto &kv : r.captureOverrides())
        core::applyMachineOption(spec.config.machine,
                                 kv.substr(0, kv.find('=')),
                                 kv.substr(kv.find('=') + 1));
    for (const auto &kv : r.timingOverrides())
        core::applyMachineOption(spec.config.machine,
                                 kv.substr(0, kv.find('=')),
                                 kv.substr(kv.find('=') + 1));
    spec.program = &sharedProgram(r.workload);
    return spec;
}

ServeSession::ServeSession(std::uint64_t seed) : stream(seed) {}

ServeSession::~ServeSession() { stop(); }

void
ServeSession::start()
{
    serve::ServeConfig config;
    config.threads = 2;
    // Scaled down from the 256 MiB default, which a run never fills: its
    // memory would then grow with the captures a run completes, so a
    // faster daemon would read as a larger one. 24 MiB (about 20
    // captures) fills in the first seconds, so a run mostly measures the
    // steady state a long-lived daemon reaches once its store cache is
    // full. It still holds the latest captures warm replays use.
    config.storeCacheBytes = 24ull << 20;
    server = std::make_unique<serve::Server>(std::move(config));
    server->start();
    loop = std::thread([this] { server->serve(); });
    Report priming;
    for (const auto &r : RequestStream::catalogue())
        if (!send(r, nullptr, priming))
            rsr_throw_io("serve: priming the catalogue failed");
    // The stream's replies and tier counts start after the priming.
    replies_.clear();
    primed_ = server->stats();
}

void
ServeSession::stop()
{
    if (!server)
        return;
    conn = serve::Socket();
    stats_ = server->stats();
    server->requestDrain();
    if (loop.joinable())
        loop.join();
    server.reset();
}

bool
ServeSession::request(Tracer *tracer, Report &report)
{
    serve::SimRequest next;
    {
        Tracer::Scope span(tracer, "serve.client.stream");
        next = stream.next();
    }
    return send(next, tracer, report);
}

bool
ServeSession::send(const serve::SimRequest &request, Tracer *tracer,
                   Report &report)
{
    const double t0 = nowSeconds();
    serve::Frame frame;
    {
        Tracer::Scope span(tracer, "serve.client.encode");
        frame.type = serve::FrameType::SimRequest;
        frame.requestId = ++lastId;
        frame.payload = serve::encodeSimRequest(request);
    }
    serve::Frame reply;
    try {
        Tracer::Scope span(tracer, "serve.client.exchange");
        const Deadline deadline(60.0);
        // A client session: one connection per block of the stream.
        if (!conn.valid() || sent++ % RequestStream::blockSize == 0)
            conn = serve::connectTo(server->port(), deadline);
        serve::sendFrame(conn.fd(), frame, deadline);
        // Spin until the reply arrives: a latency-bound client that does
        // not sleep through its own wake-up.
        pollfd pfd{conn.fd(), POLLIN, 0};
        while (::poll(&pfd, 1, 0) == 0 && !deadline.expired()) {
        }
        if (!serve::recvFrame(conn.fd(), deadline, reply))
            rsr_throw_io("daemon closed the connection without a reply");
    } catch (const SimError &e) {
        conn = serve::Socket();
        report.fail(std::string("serve exchange: ") + e.what());
        return false;
    }
    if (reply.type != serve::FrameType::SimResponse) {
        report.fail(std::string("serve reply ") +
                    serve::frameTypeName(reply.type) + ": " +
                    reply.payloadText());
        return false;
    }
    std::map<std::string, std::string> fields;
    {
        Tracer::Scope span(tracer, "serve.client.decode");
        fields = harness::parseJsonObject(reply.payloadText());
    }
    const double ms = (nowSeconds() - t0) * 1e3;
    const std::string tier = fields["cached"] == "true" ? "hit"
                             : fields["warm"] == "true" ? "warm"
                                                        : "cold";
    if (tracer)
        tracer->sample("serve.tier." + tier + "_ms", ms);

    Tracer::Scope check(tracer, "perfbench.check");
    const std::string &ipc = fields["ipc"];
    replies_.push_back(ipc);
    auto [it, fresh] =
        answers.try_emplace(request.requestHash(), Answer{request, ipc});
    if (!fresh && it->second.ipc != ipc) {
        report.fail("serve answered one request two ways: " + ipc +
                    " vs " + it->second.ipc);
        return false;
    }
    return true;
}

void
ServeSession::verify(Report &report)
{
    // Every distinct request answered must equal its direct run.
    std::vector<const Answer *> todo;
    for (const auto &kv : answers)
        todo.push_back(&kv.second);
    std::vector<std::string> direct(todo.size());
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < todo.size(); ++i)
        tasks.push_back([&, i] {
            const auto r = directRun(directSpec(todo[i]->request), 1);
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.9g", r.estimate.mean);
            direct[i] = buf;
        });
    runParallel(tasks);
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < todo.size(); ++i)
        if (direct[i] != todo[i]->ipc)
            ++wrong;
    report.attempt(wrong == 0);
    if (wrong)
        report.fail(std::to_string(wrong) + " of " +
                    std::to_string(todo.size()) +
                    " served results differ from the direct run");
}

Accuracy
ServeSession::accuracy(const std::vector<double> &true_ipc, Report &report)
{
    // The catalogue's fixed-seed requests: RSR against true IPC and
    // against SMARTS on the same schedule.
    const auto cat = RequestStream::catalogue();
    std::map<std::string, double> ipc;
    for (std::size_t i = 0; i < cat.size(); ++i) {
        const auto it = answers.find(cat[i].requestHash());
        if (it == answers.end()) {
            report.fail("catalogue request never answered");
            return {};
        }
        ipc[cat[i].workload + "/" + cat[i].policy] = std::stod(it->second.ipc);
    }
    Accuracy acc;
    unsigned n = 0;
    for (std::size_t i = 0; i < cat.size(); ++i) {
        if (cat[i].policy != "rsr40")
            continue;
        const double r = ipc[cat[i].workload + "/rsr40"];
        const double s = ipc[cat[i].workload + "/smarts"];
        acc.relErrPct += 100.0 * std::fabs(r - true_ipc[i]) / true_ipc[i];
        acc.gapPct += 100.0 * std::fabs(r - s) / s;
        ++n;
    }
    acc.relErrPct /= n;
    acc.gapPct /= n;
    return acc;
}

void
ServeSession::countLayers(Tracer &tracer) const
{
    tracer.count("serve.stats.cache_hits",
                 static_cast<double>(stats_.cacheHits - primed_.cacheHits));
    tracer.count("serve.stats.warm_replays",
                 static_cast<double>(stats_.warmReplays - primed_.warmReplays));
    tracer.count("serve.stats.cold_captures",
                 static_cast<double>(stats_.coldCaptures -
                                     primed_.coldCaptures));
    tracer.count("serve.stats.completed",
                 static_cast<double>(stats_.completed - primed_.completed));
    tracer.peak("serve.store_cache_bytes",
                static_cast<double>(stats_.storeCacheBytes));
}

std::string
ServeSession::tierMix() const
{
    const std::uint64_t n = stats_.completed - primed_.completed;
    const auto share = [n](std::uint64_t k) {
        return n ? static_cast<double>(k) / static_cast<double>(n) : 0.0;
    };
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "serve tiers of %llu requests: hit %.4f warm %.4f cold %.4f",
                  static_cast<unsigned long long>(n),
                  share(stats_.cacheHits - primed_.cacheHits),
                  share(stats_.warmReplays - primed_.warmReplays),
                  share(stats_.coldCaptures - primed_.coldCaptures));
    return buf;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "table2")
        return std::make_unique<Table2>(seed);
    if (name == "design_sweep")
        return std::make_unique<DesignSweep>(seed);
    if (name == "serve_mix")
        return std::make_unique<ServeMix>(seed);
    return nullptr;
}

} // namespace rsr::perfbench
