/**
 * @file
 * Tests for the sampled-run pipeline on the calling thread and on the
 * harness thread pool: the headline property is that
 * `runSampledParallel` is bit-identical for any worker count, across the
 * paper's whole Table-2 policy matrix.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "core/livepoint_store.hh"
#include "core/phase_driver.hh"
#include "core/warmup.hh"
#include "harness/parallel_run.hh"
#include "harness/thread_pool.hh"
#include "util/deadline.hh"
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

TEST(ThreadPool, TenThousandTinyTasksWithConcurrentWait)
{
    // submit() wakes a worker only when one is parked: a lost wake-up
    // would leave tasks queued and hang a wait().
    harness::ThreadPool pool(3);
    std::atomic<int> ran{0};
    std::atomic<bool> submitting{true};
    std::thread waiter([&] {
        while (submitting.load())
            pool.wait();
    });
    for (int i = 0; i < 10'000; ++i)
        pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    submitting = false;
    waiter.join();
    pool.wait();
    EXPECT_EQ(ran.load(), 10'000);
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
    // In process the warm state is copied, never serialized.
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
 * A warm machine copied onto a pool worker's arena must measure exactly
 * like its snapshot bytes restored there. A plain copy of the shared
 * machine also carries what a snapshot leaves out — bus occupancy and
 * statistics, cache and predictor statistics, the warm-update counter,
 * the predictor's reconstruction hook — so ReplayArena::copy() must
 * clear each of them, and the shared machine below dirties each one.
 * Both arenas start dirty with another cluster's measurement.
 */
TEST_F(ParallelReplay, WarmMachineCopyReplaysLikeRestore)
{
    auto policy = core::makePolicyByName("rsr40");
    const auto store =
        core::LivePointStore::create(*prog, *policy, *cfg, "gcc", "rsr40");
    ASSERT_EQ(store.clusterCount(), 8u);
    const std::size_t k = 5;
    const core::ClusterReplayTask source = store.makeReplayTask(k);
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
    core::Machine shared(cfg->machine);
    restoreFromBytes(shared, source.machineState);
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

    // Cluster k as a stored task holding the shared machine's bytes.
    const std::vector<std::uint8_t> bytes = snapshotToBytes(shared);
    const auto restoredTask = [&] {
        core::ClusterReplayTask t;
        t.index = k;
        t.cluster = source.cluster;
        t.machineState = bytes;
        t.trace = source.trace;
        t.context = cloneContext(*source.context);
        return t;
    };

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
    // The arena machine @p m after measuring @p rr.
    const auto outcomeOf = [](const core::Machine &m,
                              const uarch::RunResult &rr,
                              std::uint64_t recon) {
        Outcome o;
        o.rr = rr;
        o.recon = recon;
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
    // Measure cluster @p dirty_with on @p arena first, so the arena
    // machine holds another cluster's state and statistics.
    const auto dirty = [&](core::ReplayArena &arena, std::size_t dirty_with) {
        core::ClusterReplayTask t = store.makeReplayTask(dirty_with);
        core::replayCluster(t, cfg->machine, arena);
    };

    // The copy leg runs on a pool worker, as the sampled-run pipeline
    // copies and measures there.
    Outcome copy_out;
    core::ReplayArena worker_arena;
    harness::ThreadPool pool(2);
    pool.submit([&] {
        dirty(worker_arena, 0);
        core::Machine &m = worker_arena.copy(shared);
        const auto context = cloneContext(*source.context);
        std::uint64_t recon = 0;
        const uarch::RunResult rr = core::measureCluster(
            m, context.get(), source.trace, cfg->machine.core, &recon);
        copy_out = outcomeOf(m, rr, recon);
    });
    pool.wait();
    hook->detach(shared);

    const auto restoreLeg = [&](core::ReplayArena &arena) {
        core::ClusterReplayTask t = restoredTask();
        std::uint64_t recon = 0;
        const uarch::RunResult rr =
            core::replayCluster(t, cfg->machine, arena, &recon);
        return outcomeOf(arena.acquire(cfg->machine), rr, recon);
    };
    core::ReplayArena fresh_arena, dirty_arena;
    const Outcome fresh_out = restoreLeg(fresh_arena);
    dirty(dirty_arena, 1);
    const Outcome dirty_out = restoreLeg(dirty_arena);

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
    const core::Cluster last = core::scheduleFor(*cfg).back();
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

/**
 * runSampledParallel is the sweep pipeline with one policy on jobs + 1
 * threads (the calling thread is a lane), holding max(2, 2 + jobs)
 * region buffers: 4, 5, 6 and 10 at jobs 2, 3, 4 and 8. Every count
 * must reproduce core::runSampled field by field, also when the buffers
 * outnumber the regions (3 clusters).
 */
TEST_F(ParallelReplay, OnePolicyPipelineMatchesRunSampledAtEveryBufferCount)
{
    for (const char *machine : {"scaled", "paper"}) {
        for (const std::uint64_t clusters : {20u, 3u}) {
            core::SampledConfig c = *cfg;
            c.totalInsts = 100'000;
            c.regimen = {clusters, 1000};
            c.machine = std::string(machine) == "paper"
                            ? core::MachineConfig::paperDefault()
                            : core::MachineConfig::scaledDefault();
            for (const char *name : {"rbp", "rsr20", "smarts"}) {
                const core::SampledResult solo =
                    core::runSampled(*prog, *core::makePolicyByName(name), c);
                ASSERT_EQ(solo.clusterIpc.size(), clusters);
                for (const unsigned jobs : {2u, 3u, 4u, 8u}) {
                    const core::SampledResult got =
                        harness::runSampledParallel(
                            *prog, *core::makePolicyByName(name), c, jobs);
                    const std::string what =
                        std::string(name) + " " + machine + " clusters " +
                        std::to_string(clusters) + " jobs " +
                        std::to_string(jobs);
                    EXPECT_EQ(got.clusterIpc, solo.clusterIpc) << what;
                    EXPECT_EQ(got.estimate.mean, solo.estimate.mean) << what;
                    EXPECT_EQ(got.estimate.ciLow, solo.estimate.ciLow)
                        << what;
                    EXPECT_EQ(got.estimate.ciHigh, solo.estimate.ciHigh)
                        << what;
                    EXPECT_EQ(got.hotCycles, solo.hotCycles) << what;
                    EXPECT_EQ(got.hotInsts, solo.hotInsts) << what;
                    EXPECT_EQ(got.branchMispredicts, solo.branchMispredicts)
                        << what;
                    EXPECT_EQ(got.skippedInsts, solo.skippedInsts) << what;
                    const core::WarmupWork &a = got.warmWork;
                    const core::WarmupWork &b = solo.warmWork;
                    EXPECT_EQ(a.functionalUpdates, b.functionalUpdates)
                        << what;
                    EXPECT_EQ(a.reconstructionUpdates,
                              b.reconstructionUpdates)
                        << what;
                    EXPECT_EQ(a.loggedRecords, b.loggedRecords) << what;
                    EXPECT_EQ(a.peakLogBytes, b.peakLogBytes) << what;
                }
            }
        }
    }
}

/** What the LatchPolicy tasks of one sweep share. */
struct CallerLatch
{
    std::mutex mu;
    std::condition_variable cv;
    bool callerRan = false; // a task ran on the sweep's calling thread
    std::atomic<int> running{0};
};

/**
 * A test-only policy that warms nothing (so its results are those of
 * `none`) and tells which thread runs its consumer tasks. A task on a
 * pool worker blocks until some task of the sweep has run on the calling
 * thread (ThreadPool::workerIndex() == -1), and throws InternalError if
 * none has within 20 s, so a calling thread that never helps fails the
 * sweep rather than hanging it. With @p fail set, the first task that
 * runs on the calling thread releases the latch and then calls @p fail.
 */
class LatchPolicy final : public core::WarmupPolicy
{
  public:
    LatchPolicy(CallerLatch &latch, std::string label,
                std::function<void()> fail = {})
        : WarmupPolicy(false, false), latch(latch), label(std::move(label)),
          fail(std::move(fail))
    {}

    std::string name() const override { return label; }

    void
    consumeRegion(const core::SkipLog &, core::LogCursor) override
    {
        ++latch.running;
        struct Leave
        {
            std::atomic<int> &running;
            ~Leave() { --running; }
        } leave{latch.running};
        std::unique_lock<std::mutex> lk(latch.mu);
        if (harness::ThreadPool::workerIndex() < 0) {
            const bool first = !latch.callerRan;
            latch.callerRan = true;
            latch.cv.notify_all();
            lk.unlock();
            if (first && fail)
                fail();
        } else if (!latch.cv.wait_for(lk, std::chrono::seconds(20),
                                      [&] { return latch.callerRan; })) {
            rsr_throw_internal("no consumer task ran on the calling thread");
        }
    }

  private:
    CallerLatch &latch;
    const std::string label;
    const std::function<void()> fail;
};

/**
 * At jobs 1 the sweep has one pool worker, and the LatchPolicy task it
 * takes first blocks until the calling thread has run a consumer task:
 * the sweep completes only if the producer's thread runs queued tasks
 * while it waits for a free buffer (8 regions, 2 buffers). The results
 * stay those of `none`, whichever thread ran which task.
 */
TEST_F(ParallelReplay, CallingThreadRunsQueuedConsumerTasks)
{
    CallerLatch latch;
    LatchPolicy a(latch, "latch-a"), b(latch, "latch-b");
    const auto sweep = harness::sweepPolicies(*prog, {&a, &b}, *cfg, 1);
    EXPECT_TRUE(latch.callerRan);
    EXPECT_EQ(latch.running.load(), 0);
    const auto none = core::makePolicyByName("none");
    const core::SampledResult solo = core::runSampled(*prog, *none, *cfg);
    ASSERT_EQ(sweep.size(), 2u);
    for (const harness::PolicySweepEntry &e : sweep) {
        EXPECT_EQ(e.cliName, e.displayName);
        EXPECT_EQ(e.result.clusterIpc, solo.clusterIpc) << e.cliName;
        EXPECT_EQ(e.result.hotCycles, solo.hotCycles) << e.cliName;
        EXPECT_EQ(e.result.skippedInsts, solo.skippedInsts) << e.cliName;
    }
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

/**
 * The step-at-a-time phases, driven as a caller that times each step
 * drives them: each CapturePhase::run task replays on a pool only after
 * the next SkipPhase::run has refilled the skip log, so a measurement
 * context that borrowed the log would reconstruct from the wrong region.
 */
TEST_F(ParallelReplay, PhaseTasksReplayedAfterNextSkipMatchRunSampled)
{
    for (const char *name : {"rsr40", "rbp"}) {
        const auto policy = core::makePolicyByName(name);
        const std::vector<core::Cluster> schedule = core::scheduleFor(*cfg);
        func::FuncSim fs(*prog);
        core::Machine machine(cfg->machine);
        policy->clearWork();
        policy->attach(machine);
        const std::uint64_t iline_mask =
            ~std::uint64_t{cfg->machine.hier.il1.lineBytes - 1};
        core::PhaseCounters counters;
        core::SkipPhase skip(fs, *policy, nullptr, iline_mask, counters);
        core::ReconstructPhase reconstruct(*policy, counters);
        core::CapturePhase capture(fs, *policy, machine, iline_mask,
                                   counters);

        core::ReplayLedger ledger(schedule.size(), cfg->machine);
        std::vector<core::ReplayArena> arenas(2);
        {
            harness::ThreadPool pool(2);
            const auto replay =
                [&](std::shared_ptr<core::ClusterReplayTask> task) {
                    ASSERT_NE(task->context, nullptr);
                    pool.submit([&ledger, &arenas, task] {
                        ledger.replay(*task,
                                      arenas[static_cast<std::size_t>(
                                          harness::ThreadPool::
                                              workerIndex())]);
                    });
                };
            std::shared_ptr<core::ClusterReplayTask> pending;
            std::uint64_t pos = 0;
            for (std::size_t i = 0; i < schedule.size(); ++i) {
                skip.run(schedule[i].start - pos);
                if (pending)
                    replay(std::move(pending));
                reconstruct.run();
                pending = std::make_shared<core::ClusterReplayTask>(
                    capture.run(i, schedule[i]));
                pos = schedule[i].start + schedule[i].size;
            }
            replay(std::move(pending));
            pool.wait();
        }
        core::SampledResult got;
        policy->addReconstructionWork(ledger.fold(got));

        const auto solo_policy = core::makePolicyByName(name);
        const core::SampledResult solo =
            core::runSampled(*prog, *solo_policy, *cfg);
        EXPECT_EQ(got.clusterIpc, solo.clusterIpc) << name;
        EXPECT_EQ(got.estimate.mean, solo.estimate.mean) << name;
        EXPECT_EQ(got.hotCycles, solo.hotCycles) << name;
        EXPECT_EQ(got.branchMispredicts, solo.branchMispredicts) << name;
        const core::WarmupWork &a = policy->work();
        const core::WarmupWork &b = solo.warmWork;
        EXPECT_GT(a.reconstructionUpdates, 0u) << name;
        EXPECT_EQ(a.reconstructionUpdates, b.reconstructionUpdates)
            << name;
        EXPECT_EQ(a.loggedRecords, b.loggedRecords) << name;
        EXPECT_EQ(a.peakLogBytes, b.peakLogBytes) << name;
    }
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

/** The fields a store replay must reproduce at any job count. */
void
expectSameReplay(const core::SampledResult &r, const core::SampledResult &want,
                 const std::string &what)
{
    EXPECT_EQ(r.clusterIpc, want.clusterIpc) << what;
    EXPECT_EQ(r.hotCycles, want.hotCycles) << what;
    EXPECT_EQ(r.hotInsts, want.hotInsts) << what;
    EXPECT_EQ(r.branchMispredicts, want.branchMispredicts) << what;
    EXPECT_EQ(r.warmWork.reconstructionUpdates,
              want.warmWork.reconstructionUpdates)
        << what;
    EXPECT_EQ(r.estimate.mean, want.estimate.mean) << what;
    EXPECT_EQ(r.estimate.stdErr, want.estimate.stdErr) << what;
    EXPECT_EQ(r.estimate.ciLow, want.estimate.ciLow) << what;
    EXPECT_EQ(r.estimate.ciHigh, want.estimate.ciHigh) << what;
}

/** The number of threads in this process, or 0 where that is unknown. */
std::size_t
processThreads()
{
    std::error_code ec;
    std::filesystem::directory_iterator it("/proc/self/task", ec);
    if (ec)
        return 0;
    return static_cast<std::size_t>(
        std::distance(it, std::filesystem::directory_iterator()));
}

/**
 * Store replay runs inline at jobs <= 1 and on jobs pool workers plus
 * the calling thread otherwise, every lane pulling clusters from one
 * counter. Every job count, a store with fewer clusters than lanes, and
 * replays called from inside another pool's tasks (as campaign jobs and
 * serve requests call it) reproduce jobs 1 exactly.
 */
TEST_F(ParallelReplay, StoreReplayOnEveryLaneMatchesJobsOne)
{
    const auto store = core::LivePointStore::create(
        *prog, *core::makePolicyByName("rsr40"), *cfg, "gcc", "rsr40");
    ASSERT_EQ(store.clusterCount(), 8u);
    const core::SampledResult ref = harness::replayStoreParallel(store, 1);
    EXPECT_GT(ref.warmWork.reconstructionUpdates, 0u);
    for (const unsigned jobs : {0u, 1u, 2u, 3u, 4u, 8u})
        expectSameReplay(harness::replayStoreParallel(store, jobs), ref,
                         "jobs " + std::to_string(jobs));

    core::SampledConfig small = *cfg;
    small.regimen.numClusters = 3;
    const auto store3 = core::LivePointStore::create(
        *prog, *core::makePolicyByName("rsr40"), small, "gcc", "rsr40");
    ASSERT_EQ(store3.clusterCount(), 3u);
    expectSameReplay(harness::replayStoreParallel(store3, 8),
                     harness::replayStoreParallel(store3, 1),
                     "3 clusters at jobs 8");

    const std::vector<unsigned> inner{1, 3, 4};
    std::vector<core::SampledResult> nested(inner.size());
    harness::ThreadPool outer(2);
    for (std::size_t k = 0; k < inner.size(); ++k)
        outer.submit([&store, &nested, &inner, k] {
            nested[k] = harness::replayStoreParallel(store, inner[k]);
        });
    outer.wait();
    for (std::size_t k = 0; k < inner.size(); ++k)
        expectSameReplay(nested[k], ref,
                         "inside a pool task at jobs " +
                             std::to_string(inner[k]));
}

/**
 * A replay onto a machine whose cache geometry the stored snapshots
 * refuse throws CorruptInputError at every job count, and returns only
 * once every lane has stopped: the store is destroyed right after each
 * call, and the process has no more threads than before it.
 */
TEST_F(ParallelReplay, RefusedStoreReplayThrowsAtEveryJobCount)
{
    const auto capture = [] {
        return std::make_unique<core::LivePointStore>(
            core::LivePointStore::create(*prog,
                                         *core::makePolicyByName("smarts"),
                                         *cfg, "gcc", "smarts"));
    };
    core::MachineConfig halved = cfg->machine;
    halved.hier.dl1.sizeBytes /= 2;
    // Count after one replay that succeeds, so a thread that a runtime
    // starts with the process's first pool is counted on both sides.
    harness::replayStoreParallel(*capture(), 8);
    const std::size_t threads = processThreads();
    for (const unsigned jobs : {0u, 1u, 2u, 3u, 4u, 8u}) {
        auto store = capture();
        EXPECT_THROW(harness::replayStoreParallel(*store, halved, jobs),
                     CorruptInputError)
            << "jobs " << jobs;
        store.reset();
        EXPECT_EQ(processThreads(), threads) << "jobs " << jobs;
    }
}

// ---------------------------------------------------------------------
// The policy sweep: one functional pass, every policy warmed from the
// producer's region log, each entry bit-identical to its solo run.
// ---------------------------------------------------------------------

struct SweepCase
{
    const char *machine;
    unsigned jobs;
};

class SweepIdentity : public ::testing::TestWithParam<SweepCase>
{
  protected:
    static void
    SetUpTestSuite()
    {
        prog = new func::Program(workload::buildSynthetic(
            workload::standardWorkloadParams("gcc")));
    }

    static void
    TearDownTestSuite()
    {
        delete prog;
    }

    /** The Table-2 names plus the reuse-latency and +stale variants. */
    static std::vector<std::string>
    names()
    {
        std::vector<std::string> n = core::table2PolicyNames();
        for (const char *extra : {"mrrl", "blrl", "rsr20+stale",
                                  "rcache40+stale", "rbp+stale"})
            n.push_back(extra);
        return n;
    }

    static core::SampledConfig
    config(const std::string &machine)
    {
        core::SampledConfig cfg;
        cfg.totalInsts = 150'000;
        cfg.regimen = {8, 1500};
        cfg.machine = machine == "paper"
                          ? core::MachineConfig::paperDefault()
                          : core::MachineConfig::scaledDefault();
        return cfg;
    }

    static func::Program *prog;
};

func::Program *SweepIdentity::prog = nullptr;

TEST_P(SweepIdentity, EveryEntryMatchesItsSoloRunFieldByField)
{
    const core::SampledConfig cfg = config(GetParam().machine);
    const std::vector<std::string> n = names();
    const auto sweep = harness::runPolicySweep(*prog, n, cfg,
                                               GetParam().jobs);
    ASSERT_EQ(sweep.size(), n.size());
    for (std::size_t i = 0; i < n.size(); ++i) {
        const auto policy = core::makePolicyByName(n[i]);
        const core::SampledResult solo =
            harness::runSampledParallel(*prog, *policy, cfg, 1);
        const core::SampledResult &got = sweep[i].result;
        EXPECT_EQ(sweep[i].cliName, n[i]);
        EXPECT_EQ(sweep[i].displayName, policy->name());
        EXPECT_EQ(got.clusterIpc, solo.clusterIpc) << n[i];
        EXPECT_EQ(got.estimate.mean, solo.estimate.mean) << n[i];
        EXPECT_EQ(got.estimate.ciLow, solo.estimate.ciLow) << n[i];
        EXPECT_EQ(got.estimate.ciHigh, solo.estimate.ciHigh) << n[i];
        EXPECT_EQ(got.hotCycles, solo.hotCycles) << n[i];
        EXPECT_EQ(got.hotInsts, solo.hotInsts) << n[i];
        EXPECT_EQ(got.branchMispredicts, solo.branchMispredicts) << n[i];
        EXPECT_EQ(got.skippedInsts, solo.skippedInsts) << n[i];
        const core::WarmupWork &a = got.warmWork;
        const core::WarmupWork &b = solo.warmWork;
        EXPECT_EQ(a.functionalUpdates, b.functionalUpdates) << n[i];
        EXPECT_EQ(a.reconstructionUpdates, b.reconstructionUpdates)
            << n[i];
        EXPECT_EQ(a.loggedRecords, b.loggedRecords) << n[i];
        EXPECT_EQ(a.peakLogBytes, b.peakLogBytes) << n[i];
        EXPECT_GT(got.seconds, 0.0) << n[i];
    }
}

INSTANTIATE_TEST_SUITE_P(
    Machines, SweepIdentity,
    ::testing::Values(SweepCase{"scaled", 1}, SweepCase{"scaled", 3},
                      SweepCase{"paper", 1}, SweepCase{"paper", 3}),
    [](const ::testing::TestParamInfo<SweepCase> &info) {
        return std::string(info.param.machine) + "_jobs" +
               std::to_string(info.param.jobs);
    });

TEST(SweepDeadline, ExpiryMidRegionThrowsTimeoutAndStopsEveryTask)
{
    // Four short regions keep the consumers (and, in a solo run, the
    // replay pool) busy; the fifth skip is hundreds of millions of
    // instructions, so the deadline (generous for the short regions even
    // under a sanitizer) expires while the producer steps it. Each entry
    // must rethrow the producer's TimeoutError only after its pool has
    // drained: its tasks read buffers that die with the run.
    const func::Program prog = workload::buildSynthetic(
        workload::standardWorkloadParams("gcc"));
    core::SampledConfig cfg;
    cfg.machine = core::MachineConfig::scaledDefault();
    for (std::uint64_t c = 1; c <= 4; ++c)
        cfg.explicitSchedule.push_back({c * 10'000, 1000});
    cfg.explicitSchedule.push_back({300'000'000, 1000});
    cfg.totalInsts = 300'001'000;

    const std::vector<
        std::pair<const char *, std::function<void(const core::SampledConfig &)>>>
        entries{
            {"runPolicySweep",
             [&](const core::SampledConfig &c) {
                 harness::runPolicySweep(
                     prog, {"none", "smarts", "rsr20", "rbp"}, c, 3);
             }},
            {"runSampledParallel jobs 1",
             [&](const core::SampledConfig &c) {
                 const auto policy = core::makePolicyByName("rsr20");
                 harness::runSampledParallel(prog, *policy, c, 1);
             }},
            {"runSampledParallel jobs 3",
             [&](const core::SampledConfig &c) {
                 const auto policy = core::makePolicyByName("rsr20");
                 harness::runSampledParallel(prog, *policy, c, 3);
             }},
            {"runSampledParallel jobs 8",
             [&](const core::SampledConfig &c) {
                 const auto policy = core::makePolicyByName("rsr20");
                 harness::runSampledParallel(prog, *policy, c, 8);
             }},
            {"LivePointStore::create",
             [&](const core::SampledConfig &c) {
                 const auto policy = core::makePolicyByName("rsr20");
                 core::LivePointStore::create(prog, *policy, c, "gcc",
                                              "rsr20");
             }},
        };
    for (const auto &[entry, run] : entries) {
        const Deadline deadline(1.0);
        core::SampledConfig timed = cfg;
        timed.deadline = &deadline;
        std::string what;
        try {
            run(timed);
        } catch (const TimeoutError &e) {
            what = e.what();
        }
        EXPECT_NE(what.find("inside a skip region"), std::string::npos)
            << entry << " got: '" << what << "'";
        EXPECT_TRUE(deadline.expired()) << entry;
    }
}

/**
 * A consumer task that fails on the calling thread, while it helps
 * during production (8 regions: its first task runs while it waits for
 * buffer 0 at region 2) or during the final drain (2 regions: both are
 * produced before any buffer is reused), must fail the sweep with that
 * task's own typed error, after the pool has drained. The pool worker's
 * first LatchPolicy task blocks until the calling thread runs one, so
 * the calling thread runs a task in each phase.
 */
TEST(SweepDeadline, CallingThreadTaskFailureStopsEveryTaskInEitherPhase)
{
    const func::Program prog = workload::buildSynthetic(
        workload::standardWorkloadParams("gcc"));
    const std::vector<std::pair<const char *, std::function<void()>>>
        failures{
            {"timeout",
             [] { throw TimeoutError("injected consumer timeout"); }},
            {"corrupt",
             [] { rsr_throw_corrupt("injected consumer fault"); }},
        };
    for (const std::uint64_t clusters : {8u, 2u}) {
        for (const auto &[kind, fail] : failures) {
            core::SampledConfig cfg;
            cfg.totalInsts = 150'000;
            cfg.regimen = {clusters, 1500};
            cfg.machine = core::MachineConfig::scaledDefault();
            CallerLatch latch;
            LatchPolicy a(latch, "latch-a", fail), b(latch, "latch-b", fail);
            const std::string what = std::string(kind) + " clusters " +
                                     std::to_string(clusters);
            std::string caught;
            try {
                harness::sweepPolicies(prog, {&a, &b}, cfg, 1);
            } catch (const TimeoutError &e) {
                caught = std::string("timeout: ") + e.what();
            } catch (const CorruptInputError &e) {
                caught = std::string("corrupt: ") + e.what();
            } catch (const SimError &e) {
                caught = std::string("other: ") + e.what();
            }
            EXPECT_NE(caught.find(std::string(kind) + ": injected consumer"),
                      std::string::npos)
                << what << " got: '" << caught << "'";
            EXPECT_TRUE(latch.callerRan) << what;
            EXPECT_EQ(latch.running.load(), 0) << what;
        }
    }
}

} // namespace
} // namespace rsr
