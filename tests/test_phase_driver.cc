/**
 * @file
 * Tests for the phase driver's deferred/parallel mode and the harness
 * thread pool: the headline property is that `runSampledParallel` is
 * bit-identical for any worker count, across the paper's whole Table-2
 * policy matrix.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "core/livepoint_store.hh"
#include "core/phase_driver.hh"
#include "core/warmup.hh"
#include "harness/parallel_run.hh"
#include "harness/thread_pool.hh"
#include "util/error.hh"
#include "util/serial.hh"
#include "util/snapshot.hh"
#include "workload/synthetic.hh"

namespace rsr
{
namespace
{

TEST(ThreadPool, RunsEveryTask)
{
    harness::ThreadPool pool(4);
    std::atomic<int> sum{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&sum] { ++sum; });
    pool.wait();
    EXPECT_EQ(sum, 100);
}

TEST(ThreadPool, WaitRethrowsFirstTaskError)
{
    harness::ThreadPool pool(2);
    pool.submit([] { rsr_throw_internal("task failed"); });
    EXPECT_THROW(pool.wait(), InternalError);
    // The pool stays usable after the error is consumed.
    std::atomic<int> sum{0};
    pool.submit([&sum] { ++sum; });
    pool.wait();
    EXPECT_EQ(sum, 1);
}

TEST(ThreadPool, ZeroThreadsClampsToOne)
{
    harness::ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    std::atomic<int> sum{0};
    pool.submit([&sum] { ++sum; });
    pool.wait();
    EXPECT_EQ(sum, 1);
}

class ParallelReplay : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        prog = new func::Program(workload::buildSynthetic(
            workload::standardWorkloadParams("gcc")));
        cfg = new core::SampledConfig();
        cfg->totalInsts = 150'000;
        cfg->regimen = {8, 1500};
        cfg->machine = core::MachineConfig::scaledDefault();
    }

    static void
    TearDownTestSuite()
    {
        delete prog;
        delete cfg;
    }

    static func::Program *prog;
    static core::SampledConfig *cfg;
};

func::Program *ParallelReplay::prog = nullptr;
core::SampledConfig *ParallelReplay::cfg = nullptr;

TEST_F(ParallelReplay, BitIdenticalAcrossJobCountsForAllPolicies)
{
    for (const std::string &name : core::table2PolicyNames()) {
        const auto p1 = core::makePolicyByName(name);
        const auto serial =
            harness::runSampledParallel(*prog, *p1, *cfg, 1);
        const auto p4 = core::makePolicyByName(name);
        const auto parallel =
            harness::runSampledParallel(*prog, *p4, *cfg, 4);

        ASSERT_EQ(serial.clusterIpc.size(), parallel.clusterIpc.size())
            << name;
        for (std::size_t i = 0; i < serial.clusterIpc.size(); ++i)
            ASSERT_EQ(serial.clusterIpc[i], parallel.clusterIpc[i])
                << name << " cluster " << i;
        ASSERT_EQ(serial.estimate.mean, parallel.estimate.mean) << name;
        ASSERT_EQ(serial.estimate.ciLow, parallel.estimate.ciLow)
            << name;
        ASSERT_EQ(serial.estimate.ciHigh, parallel.estimate.ciHigh)
            << name;
        ASSERT_EQ(serial.hotCycles, parallel.hotCycles) << name;
        ASSERT_EQ(serial.branchMispredicts, parallel.branchMispredicts)
            << name;
        ASSERT_EQ(serial.warmWork.totalUpdates(),
                  parallel.warmWork.totalUpdates())
            << name;
    }
}

TEST_F(ParallelReplay, PhaseCountersAreConsistent)
{
    auto policy = core::makePolicyByName("rsr40");
    const auto r = harness::runSampledParallel(*prog, *policy, *cfg, 4);

    EXPECT_EQ(r.hotInsts, 8u * 1500u);
    EXPECT_GT(r.phases.skipSeconds, 0.0);
    EXPECT_GT(r.phases.measureSeconds, 0.0);
    EXPECT_GT(r.phases.captureSeconds, 0.0);
    // In process the warm state travels by value: nothing is serialized.
    EXPECT_EQ(r.phases.peakSnapshotBytes, 0u);

    // A store capture serializes each warmed machine, and says how big.
    core::SampledResult front;
    auto store_policy = core::makePolicyByName("rsr40");
    const auto store = core::LivePointStore::create(
        *prog, *store_policy, *cfg, "gcc", "rsr40", &front);
    EXPECT_GT(front.phases.peakSnapshotBytes, 0u);
    EXPECT_EQ(front.skippedInsts, r.skippedInsts);
}

/**
 * A warmed machine carried by value to a pool worker must replay exactly
 * like its snapshot bytes restored there. A plain copy of the shared
 * machine also carries what a snapshot leaves out — bus occupancy and
 * statistics, cache and predictor statistics, the warm-update counter,
 * the predictor's reconstruction hook — so Machine::warmCopy() must
 * clear each of them, and the shared machine below dirties each one.
 */
TEST_F(ParallelReplay, WarmMachineCopyReplaysLikeRestore)
{
    struct Keep : core::ReplaySink
    {
        std::vector<core::ClusterReplayTask> tasks;
        void
        onCluster(core::ClusterReplayTask task) override
        {
            tasks.push_back(std::move(task));
        }
    } kept;
    auto policy = core::makePolicyByName("rsr40");
    core::ClusterScheduleDriver(*prog, *policy, *cfg).runDeferred(kept);
    ASSERT_EQ(kept.tasks.size(), 8u);
    const std::size_t k = 5;
    core::ClusterReplayTask &source = kept.tasks[k];
    ASSERT_TRUE(source.machine.has_value());
    ASSERT_NE(source.context, nullptr);

    const auto cloneContext = [](const core::MeasureContext &c) {
        ByteSink sink;
        Serializer out(sink);
        c.snapshot(out);
        ByteSource src(sink.bytes());
        Deserializer in(src);
        return core::restoreMeasureContext(in);
    };

    // The shared machine: cluster k's warm state, then more functional
    // warming, a timed miss that leaves both buses busy far past any
    // replay's first cycle, and an RSR context attached.
    core::Machine shared = *source.machine;
    for (std::uint64_t i = 0; i < 64; ++i) {
        shared.hier.warmAccess(0x40000 + 64 * i, false, true);
        shared.hier.warmAccess(0x900000 + 64 * i, i % 4 == 0, false);
        shared.bp.warmApply(0x1000 + 4 * i, isa::BranchKind::Conditional,
                            i % 3 != 0, 0x2000);
    }
    shared.hier.timedLoad(1'000'000, 0x7700000);
    auto hook = cloneContext(*source.context);
    hook->attach(shared);
    ASSERT_NE(shared.bp.reconstructionClient(), nullptr);
    ASSERT_GT(shared.hier.warmUpdates(), 0u);
    ASSERT_GT(shared.bp.stats().warmUpdates, 0u);
    ASSERT_GT(shared.hier.il1().stats().misses, 0u);
    ASSERT_GT(shared.hier.dl1().stats().misses, 0u);
    ASSERT_GT(shared.hier.l2().stats().misses, 0u);
    ASSERT_GT(shared.hier.l1Bus().stats().transfers, 0u);
    ASSERT_GT(shared.hier.l2Bus().stats().transfers, 0u);

    // Cluster k's task, with its warm state in the given form.
    const auto taskWith = [&](std::optional<core::Machine> machine,
                              std::vector<std::uint8_t> bytes) {
        core::ClusterReplayTask t;
        t.index = k;
        t.cluster = source.cluster;
        t.machine = std::move(machine);
        t.machineState = std::move(bytes);
        t.trace = source.trace;
        t.context = cloneContext(*source.context);
        return t;
    };
    auto by_value = taskWith(shared.warmCopy(), {});
    const std::vector<std::uint8_t> bytes = snapshotToBytes(shared);
    auto restored = taskWith(std::nullopt, bytes);
    auto restored_dirty = taskWith(std::nullopt, bytes);
    hook->detach(shared);
    EXPECT_EQ(by_value.machine->bp.reconstructionClient(), nullptr);

    struct Outcome
    {
        uarch::RunResult rr;
        std::uint64_t recon = 0;
        std::vector<std::uint8_t> state;
        cache::BusStats l1Bus, l2Bus;
        cache::CacheStats il1, dl1, l2;
        branch::PredictorStats bp;
        std::uint64_t warmUpdates = 0;
        bool hook = false;
    };
    // Replay @p task on @p arena, after dirtying the arena with another
    // cluster when @p dirty_with is given.
    const auto replay = [&](core::ClusterReplayTask &task,
                            core::ReplayArena &arena,
                            core::ClusterReplayTask *dirty_with) {
        if (dirty_with)
            core::replayCluster(*dirty_with, cfg->machine, arena);
        Outcome o;
        o.rr = core::replayCluster(task, cfg->machine, arena, &o.recon);
        const core::Machine &m = arena.acquire(cfg->machine);
        o.state = snapshotToBytes(m);
        o.l1Bus = m.hier.l1Bus().stats();
        o.l2Bus = m.hier.l2Bus().stats();
        o.il1 = m.hier.il1().stats();
        o.dl1 = m.hier.dl1().stats();
        o.l2 = m.hier.l2().stats();
        o.bp = m.bp.stats();
        o.warmUpdates = m.hier.warmUpdates();
        o.hook = m.bp.reconstructionClient() != nullptr;
        return o;
    };

    // The by-value leg crosses to a pool worker, as PoolSink hands it.
    Outcome copy_out;
    core::ReplayArena worker_arena;
    harness::ThreadPool pool(2);
    pool.submit([&] {
        copy_out = replay(by_value, worker_arena, &kept.tasks[0]);
    });
    pool.wait();
    EXPECT_FALSE(by_value.machine.has_value());

    core::ReplayArena fresh_arena, dirty_arena;
    const Outcome fresh_out = replay(restored, fresh_arena, nullptr);
    const Outcome dirty_out =
        replay(restored_dirty, dirty_arena, &kept.tasks[1]);

    for (const Outcome *o : {&fresh_out, &dirty_out}) {
        const char *leg =
            o == &fresh_out ? "fresh restore" : "dirty restore";
        EXPECT_EQ(copy_out.rr.insts, o->rr.insts) << leg;
        EXPECT_EQ(copy_out.rr.cycles, o->rr.cycles) << leg;
        EXPECT_EQ(copy_out.rr.branchMispredicts, o->rr.branchMispredicts)
            << leg;
        EXPECT_EQ(copy_out.rr.condBranches, o->rr.condBranches) << leg;
        EXPECT_EQ(copy_out.rr.loads, o->rr.loads) << leg;
        EXPECT_EQ(copy_out.rr.stores, o->rr.stores) << leg;
        EXPECT_EQ(copy_out.rr.forwardedLoads, o->rr.forwardedLoads) << leg;
        EXPECT_EQ(copy_out.rr.dispatchStallCycles,
                  o->rr.dispatchStallCycles)
            << leg;
        EXPECT_EQ(copy_out.rr.fetchBlockedCycles, o->rr.fetchBlockedCycles)
            << leg;
        EXPECT_EQ(copy_out.recon, o->recon) << leg;
        EXPECT_EQ(copy_out.state, o->state) << leg;
        for (const auto &[a, b] :
             {std::pair{copy_out.l1Bus, o->l1Bus},
              std::pair{copy_out.l2Bus, o->l2Bus}}) {
            EXPECT_EQ(a.transfers, b.transfers) << leg;
            EXPECT_EQ(a.busyCycles, b.busyCycles) << leg;
            EXPECT_EQ(a.waitCycles, b.waitCycles) << leg;
        }
        for (const auto &[a, b] : {std::pair{copy_out.il1, o->il1},
                                   std::pair{copy_out.dl1, o->dl1},
                                   std::pair{copy_out.l2, o->l2}}) {
            EXPECT_EQ(a.hits, b.hits) << leg;
            EXPECT_EQ(a.misses, b.misses) << leg;
            EXPECT_EQ(a.fills, b.fills) << leg;
            EXPECT_EQ(a.writebacks, b.writebacks) << leg;
        }
        EXPECT_EQ(copy_out.bp.lookups, o->bp.lookups) << leg;
        EXPECT_EQ(copy_out.bp.condDirMisses, o->bp.condDirMisses) << leg;
        EXPECT_EQ(copy_out.bp.warmUpdates, o->bp.warmUpdates) << leg;
        EXPECT_EQ(copy_out.warmUpdates, o->warmUpdates) << leg;
        EXPECT_FALSE(o->hook) << leg;
    }
    EXPECT_GT(copy_out.recon, 0u);
    EXPECT_FALSE(copy_out.hook);
}

TEST_F(ParallelReplay, InlineDriverCountersMatchLegacyResult)
{
    // The serial entry point accounts every instruction up to the last
    // cluster's end as skipped or measured, and times its phases.
    auto policy = core::makePolicyByName("smarts");
    const auto r = core::runSampled(*prog, *policy, *cfg);
    const core::ClusterScheduleDriver driver(*prog, *policy, *cfg);
    const core::Cluster &last = driver.schedule().back();
    EXPECT_EQ(r.skippedInsts + r.hotInsts, last.start + last.size);
    EXPECT_EQ(r.hotInsts, 8u * 1500u);
    EXPECT_GT(r.phases.skipSeconds, 0.0);
    EXPECT_GT(r.phases.measureSeconds, 0.0);
}

TEST_F(ParallelReplay, OnDemandReconstructionWorkIsJobIndependent)
{
    auto p1 = core::makePolicyByName("rbp");
    const auto serial = harness::runSampledParallel(*prog, *p1, *cfg, 1);
    auto p4 = core::makePolicyByName("rbp");
    const auto parallel =
        harness::runSampledParallel(*prog, *p4, *cfg, 4);

    EXPECT_GT(serial.warmWork.reconstructionUpdates, 0u);
    EXPECT_EQ(serial.warmWork.reconstructionUpdates,
              parallel.warmWork.reconstructionUpdates);
}

TEST_F(ParallelReplay, PolicySweepMatchesIndividualRuns)
{
    const std::vector<std::string> names{"none", "smarts", "rsr20"};
    const auto sweep =
        harness::runPolicySweep(*prog, names, *cfg, 3);
    ASSERT_EQ(sweep.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        auto policy = core::makePolicyByName(names[i]);
        const auto solo =
            harness::runSampledParallel(*prog, *policy, *cfg, 1);
        EXPECT_EQ(sweep[i].cliName, names[i]);
        EXPECT_EQ(sweep[i].result.estimate.mean, solo.estimate.mean)
            << names[i];
        EXPECT_EQ(sweep[i].result.clusterIpc, solo.clusterIpc)
            << names[i];
    }
}

TEST_F(ParallelReplay, SweepRejectsUnknownPolicyUpFront)
{
    const std::vector<std::string> names{"none", "nonsense"};
    EXPECT_THROW(harness::runPolicySweep(*prog, names, *cfg, 2),
                 UserError);
}

// ---------------------------------------------------------------------
// Pool mechanics.
// ---------------------------------------------------------------------

TEST(ThreadPool, WeightedSubmitRunsEveryTask)
{
    harness::ThreadPool pool(3);
    std::atomic<std::uint64_t> sum{0};
    // The weighted overload ignores its weight; every task still runs.
    for (std::uint64_t w : {1000u, 1u, 1u, 500u, 1u, 1u, 1u, 250u})
        pool.submit([&sum, w] { sum += w; }, w);
    pool.wait();
    EXPECT_EQ(sum, 1755u);
}

TEST(ThreadPool, WorkerIndexIsStableAndBounded)
{
    // Off-pool threads report -1; pool workers report their own slot in
    // [0, size), consistently across many tasks.
    EXPECT_EQ(harness::ThreadPool::workerIndex(), -1);
    harness::ThreadPool pool(4);
    std::mutex mu;
    std::set<int> seen;
    std::atomic<bool> bad{false};
    for (int i = 0; i < 200; ++i)
        pool.submit([&] {
            const int idx = harness::ThreadPool::workerIndex();
            if (idx < 0 || idx >= 4)
                bad = true;
            std::lock_guard<std::mutex> lk(mu);
            seen.insert(idx);
        });
    pool.wait();
    EXPECT_FALSE(bad);
    EXPECT_GE(seen.size(), 1u);
    EXPECT_EQ(harness::ThreadPool::workerIndex(), -1);
}

TEST(ThreadPool, PoolIsReusableAcrossWaves)
{
    harness::ThreadPool pool(2);
    std::atomic<int> sum{0};
    for (int wave = 0; wave < 5; ++wave) {
        for (int i = 0; i < 50; ++i)
            pool.submit([&sum] { ++sum; });
        pool.wait();
    }
    EXPECT_EQ(sum, 250);
}

TEST(ThreadPool, EveryWorkerRunsConcurrently)
{
    // Each task waits until all three have started. Every submit must
    // wake a parked worker: a lost wake-up leaves a task queued behind
    // the waiting ones until the deadline, and it never sees the others.
    harness::ThreadPool pool(3);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::atomic<int> started{0};
    std::atomic<int> met{0};
    for (int i = 0; i < 3; ++i)
        pool.submit([&] {
            ++started;
            while (started.load() < 3 &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
            if (started.load() == 3)
                ++met;
        });
    pool.wait();
    EXPECT_EQ(met, 3);
}

TEST(ThreadPool, DestructorDropsUnstartedTasks)
{
    // One worker runs a task that blocks until released; kQueued tasks
    // wait behind it. Destroying the pool must drop the queued tasks —
    // their captures die without running — and let the running one
    // finish.
    constexpr int kQueued = 8;
    auto pool = std::make_unique<harness::ThreadPool>(1);
    std::atomic<bool> running{false};
    std::atomic<bool> release{false};
    std::atomic<int> ran{0};
    pool->submit([&] {
        running = true;
        while (!release.load())
            std::this_thread::yield();
        ++ran;
    });
    while (!running.load())
        std::this_thread::yield();
    const auto token = std::make_shared<int>(0);
    for (int i = 0; i < kQueued; ++i)
        pool->submit([&ran, token] { ++ran; });

    std::thread destroyer([&pool] { pool.reset(); });
    // Only the destructor frees the queued captures while the worker is
    // blocked, so their release shows that destruction has begun.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (token.use_count() > 1 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    EXPECT_EQ(token.use_count(), 1);
    release = true;
    destroyer.join();
    EXPECT_EQ(ran, 1);
}

TEST(ThreadPool, ArenaReplayMatchesFreshMachine)
{
    // Replaying through a reused arena machine must be bit-identical to
    // a fresh machine per cluster: restore fully overwrites the state.
    auto prog = func::Program(workload::buildSynthetic(
        workload::standardWorkloadParams("gcc")));
    core::SampledConfig cfg;
    cfg.totalInsts = 60'000;
    cfg.regimen = {4, 1000};
    cfg.machine = core::MachineConfig::scaledDefault();

    auto p1 = core::makePolicyByName("rsr40");
    const auto a = harness::runSampledParallel(prog, *p1, cfg, 1);
    auto p2 = core::makePolicyByName("rsr40");
    const auto b = harness::runSampledParallel(prog, *p2, cfg, 3);
    // jobs=3 replays each worker's clusters through one reused arena;
    // jobs=1 (core::runSampled) uses one arena for all of them.
    EXPECT_EQ(a.clusterIpc, b.clusterIpc);
    EXPECT_EQ(a.estimate.mean, b.estimate.mean);
    EXPECT_EQ(a.hotCycles, b.hotCycles);
}

/**
 * The stress test: the full Table-2 policy matrix at
 * jobs ∈ {1, 2, 3, 7, 16} must emit a byte-identical CSV — swept per policy (runPolicySweep), replayed per
 * cluster on pool workers (runSampledParallel), and replayed from
 * live-point stores (replayStoreParallel), so the replay ledger's
 * worker lanes are stressed at cluster grain too. The CSV serializes
 * every per-policy estimate and per-cluster IPC at full precision, so
 * any cross-thread reordering of a single FP accumulation flips a byte.
 */
TEST_F(ParallelReplay, StressByteIdenticalCsvAcrossJobs)
{
    const std::vector<std::string> &names = core::table2PolicyNames();
    const auto csvOf = [&](const std::vector<harness::PolicySweepEntry>
                               &sweep) {
        std::string csv = "policy,mean,ci_low,ci_high,cluster_ipc\n";
        for (const auto &e : sweep) {
            char buf[128];
            std::snprintf(buf, sizeof(buf), "%s,%.17g,%.17g,%.17g",
                          e.cliName.c_str(), e.result.estimate.mean,
                          e.result.estimate.ciLow,
                          e.result.estimate.ciHigh);
            csv += buf;
            for (const double ipc : e.result.clusterIpc) {
                std::snprintf(buf, sizeof(buf), ",%.17g", ipc);
                csv += buf;
            }
            csv += '\n';
        }
        return csv;
    };

    const std::string ref =
        csvOf(harness::runPolicySweep(*prog, names, *cfg, 1));
    ASSERT_NE(ref.find("rsr40"), std::string::npos);

    std::vector<core::LivePointStore> stores;
    for (const std::string &name : names)
        stores.push_back(core::LivePointStore::create(
            *prog, *core::makePolicyByName(name), *cfg, "gcc", name));
    // One sweep-shaped CSV from per-policy results of @p run.
    const auto csvFrom = [&](const auto &run) {
        std::vector<harness::PolicySweepEntry> sweep(names.size());
        for (std::size_t i = 0; i < names.size(); ++i) {
            sweep[i].cliName = names[i];
            sweep[i].result = run(i);
        }
        return csvOf(sweep);
    };

    // Every worker count must reproduce the serial CSV byte for byte.
    for (const unsigned jobs : {2u, 3u, 7u, 16u}) {
        ASSERT_EQ(ref,
                  csvOf(harness::runPolicySweep(*prog, names, *cfg, jobs)))
            << "sweep CSV diverged at jobs=" << jobs;
        ASSERT_EQ(ref, csvFrom([&](std::size_t i) {
                      return harness::runSampledParallel(
                          *prog, *core::makePolicyByName(names[i]), *cfg,
                          jobs);
                  }))
            << "cluster-grain CSV diverged at jobs=" << jobs;
        ASSERT_EQ(ref, csvFrom([&](std::size_t i) {
                      return harness::replayStoreParallel(
                          stores[i], cfg->machine, jobs);
                  }))
            << "store-replay CSV diverged at jobs=" << jobs;
    }
}

} // namespace
} // namespace rsr
