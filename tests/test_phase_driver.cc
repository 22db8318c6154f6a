/**
 * @file
 * Tests for the phase driver's deferred/parallel mode and the harness
 * thread pool: the headline property is that `runSampledParallel` is
 * bit-identical for any worker count, across the paper's whole Table-2
 * policy matrix.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <mutex>
#include <set>

#include "core/livepoint_store.hh"
#include "core/phase_driver.hh"
#include "core/warmup.hh"
#include "harness/parallel_run.hh"
#include "harness/thread_pool.hh"
#include "util/error.hh"
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

/** The full Table-2 matrix by CLI name. */
const char *const table2Names[] = {
    "none",     "fp20",     "fp40",      "fp80", "scache", "sbp",
    "smarts",   "rcache20", "rcache40",  "rcache80", "rcache100",
    "rbp",      "rsr20",    "rsr40",     "rsr80", "rsr100"};

TEST_F(ParallelReplay, BitIdenticalAcrossJobCountsForAllPolicies)
{
    for (const char *name : table2Names) {
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

    EXPECT_EQ(r.phases.skipInsts, r.skippedInsts);
    EXPECT_EQ(r.phases.measureInsts, r.hotInsts);
    EXPECT_EQ(r.hotInsts, 8u * 1500u);
    EXPECT_GT(r.phases.peakSnapshotBytes, 0u);
    EXPECT_GT(r.phases.skipSeconds, 0.0);
    EXPECT_GT(r.phases.measureSeconds, 0.0);
    EXPECT_GT(r.phases.captureSeconds, 0.0);
}

TEST_F(ParallelReplay, InlineDriverCountersMatchLegacyResult)
{
    // The serial entry point keeps the legacy accounting intact and
    // fills the per-phase counters consistently.
    auto policy = core::makePolicyByName("smarts");
    const auto r = core::runSampled(*prog, *policy, *cfg);
    EXPECT_EQ(r.phases.skipInsts, r.skippedInsts);
    EXPECT_EQ(r.phases.measureInsts, r.hotInsts);
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
// Work-stealing pool mechanics.
// ---------------------------------------------------------------------

TEST(WorkStealing, WeightedSubmitRunsEveryTask)
{
    harness::ThreadPool pool(3);
    std::atomic<std::uint64_t> sum{0};
    // Wildly skewed weights: placement picks the least-loaded lane, but
    // stealing must drain them all regardless.
    for (std::uint64_t w : {1000u, 1u, 1u, 500u, 1u, 1u, 1u, 250u})
        pool.submit([&sum, w] { sum += w; }, w);
    pool.wait();
    EXPECT_EQ(sum, 1755u);
}

TEST(WorkStealing, WorkerIndexIsStableAndBounded)
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

TEST(WorkStealing, PoolIsReusableAcrossWaves)
{
    harness::ThreadPool pool(2, 42);
    std::atomic<int> sum{0};
    for (int wave = 0; wave < 5; ++wave) {
        for (int i = 0; i < 50; ++i)
            pool.submit([&sum] { ++sum; });
        pool.wait();
    }
    EXPECT_EQ(sum, 250);
}

TEST(WorkStealing, ArenaReplayMatchesFreshMachine)
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
 * The satellite stress test: the full Table-2 policy matrix at
 * jobs ∈ {1, 2, 7, 16} under randomized steal order must emit a
 * byte-identical CSV — swept per policy (runPolicySweep), replayed per
 * cluster on pool workers (runSampledParallel), and replayed from
 * live-point stores (replayStoreParallel), so the replay ledger's
 * worker lanes are stressed at cluster grain too. The CSV serializes
 * every per-policy estimate and per-cluster IPC at full precision, so
 * any cross-thread reordering of a single FP accumulation flips a byte.
 */
TEST_F(ParallelReplay, StressByteIdenticalCsvAcrossJobsAndStealOrder)
{
    const std::vector<std::string> names(std::begin(table2Names),
                                         std::end(table2Names));
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

    // Each (jobs, seed) cell randomizes victim selection differently;
    // every cell must reproduce the serial CSV byte for byte.
    const unsigned job_counts[] = {2, 7, 16};
    const std::uint64_t seeds[] = {1, 0xdecafbadULL};
    for (const unsigned jobs : job_counts)
        for (const std::uint64_t seed : seeds) {
            ASSERT_EQ(ref, csvOf(harness::runPolicySweep(*prog, names,
                                                         *cfg, jobs, seed)))
                << "sweep CSV diverged at jobs=" << jobs
                << " seed=" << seed;
            ASSERT_EQ(ref, csvFrom([&](std::size_t i) {
                          return harness::runSampledParallel(
                              *prog, *core::makePolicyByName(names[i]),
                              *cfg, jobs, seed);
                      }))
                << "cluster-grain CSV diverged at jobs=" << jobs
                << " seed=" << seed;
            ASSERT_EQ(ref, csvFrom([&](std::size_t i) {
                          return harness::replayStoreParallel(
                              stores[i], cfg->machine, jobs, seed);
                      }))
                << "store-replay CSV diverged at jobs=" << jobs
                << " seed=" << seed;
        }
}

} // namespace
} // namespace rsr
