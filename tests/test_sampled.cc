/**
 * @file
 * End-to-end sampled-simulation tests: the controller's phase structure,
 * warm-up policy behaviour over full runs, result accounting, ordering
 * properties between methods, and determinism.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/sampled_sim.hh"
#include "core/warmup.hh"
#include "workload/synthetic.hh"

namespace rsr::core
{
namespace
{

/** Small, fast shared fixture: one workload + scaled machine. */
class SampledRun : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        workload::WorkloadParams p =
            workload::standardWorkloadParams("twolf");
        prog = new func::Program(workload::buildSynthetic(p));

        cfg = new SampledConfig();
        cfg->totalInsts = 600'000;
        cfg->regimen = {20, 2000};
        cfg->machine = MachineConfig::scaledDefault();

        true_ipc = runFull(*prog, cfg->totalInsts, cfg->machine).ipc();
    }

    static void
    TearDownTestSuite()
    {
        delete prog;
        delete cfg;
        prog = nullptr;
        cfg = nullptr;
    }

    static func::Program *prog;
    static SampledConfig *cfg;
    static double true_ipc;
};

func::Program *SampledRun::prog = nullptr;
SampledConfig *SampledRun::cfg = nullptr;
double SampledRun::true_ipc = 0.0;

TEST_F(SampledRun, TrueIpcSane)
{
    EXPECT_GT(true_ipc, 0.05);
    EXPECT_LT(true_ipc, 4.0);
}

TEST_F(SampledRun, AccountingAddsUp)
{
    auto none = makePolicyByName("none");
    const auto r = runSampled(*prog, *none, *cfg);
    EXPECT_EQ(r.clusterIpc.size(), cfg->regimen.numClusters);
    EXPECT_EQ(r.hotInsts, cfg->regimen.sampledInsts());
    EXPECT_GT(r.skippedInsts, 0u);
    EXPECT_LE(r.skippedInsts + r.hotInsts, cfg->totalInsts);
    EXPECT_GT(r.hotCycles, r.hotInsts / 8); // IPC can't exceed width
    EXPECT_EQ(r.warmWork.totalUpdates(), 0u);
    EXPECT_EQ(r.warmWork.loggedRecords, 0u);
    EXPECT_GT(r.seconds, 0.0);
}

TEST_F(SampledRun, DeterministicAcrossRuns)
{
    auto p1 = makePolicyByName("rsr40");
    auto p2 = makePolicyByName("rsr40");
    const auto r1 = runSampled(*prog, *p1, *cfg);
    const auto r2 = runSampled(*prog, *p2, *cfg);
    ASSERT_EQ(r1.clusterIpc.size(), r2.clusterIpc.size());
    for (std::size_t i = 0; i < r1.clusterIpc.size(); ++i)
        EXPECT_DOUBLE_EQ(r1.clusterIpc[i], r2.clusterIpc[i]);
    EXPECT_EQ(r1.warmWork.loggedRecords, r2.warmWork.loggedRecords);
}

TEST_F(SampledRun, ScheduleSeedHoldsSamplingBiasConstant)
{
    // Different policies must measure the identical clusters: with the
    // same seed, the hot instruction count and cluster count agree and
    // only warm-up state differs.
    auto none = makePolicyByName("none");
    auto smarts = makePolicyByName("smarts");
    const auto r1 = runSampled(*prog, *none, *cfg);
    const auto r2 = runSampled(*prog, *smarts, *cfg);
    EXPECT_EQ(r1.hotInsts, r2.hotInsts);
    EXPECT_EQ(r1.skippedInsts, r2.skippedInsts);
}

TEST_F(SampledRun, SmartsBeatsNoWarmup)
{
    auto none = makePolicyByName("none");
    auto smarts = makePolicyByName("smarts");
    const auto rn = runSampled(*prog, *none, *cfg);
    const auto rs = runSampled(*prog, *smarts, *cfg);
    EXPECT_LT(rs.estimate.relativeError(true_ipc),
              rn.estimate.relativeError(true_ipc));
}

TEST_F(SampledRun, RsrAccuracyNearSmarts)
{
    auto smarts = makePolicyByName("smarts");
    auto rsr = makePolicyByName("rsr100");
    const auto rs = runSampled(*prog, *smarts, *cfg);
    const auto rr = runSampled(*prog, *rsr, *cfg);
    const double gap = std::fabs(rr.estimate.mean - rs.estimate.mean) /
                       rs.estimate.mean;
    EXPECT_LT(gap, 0.10) << "RSR estimate " << rr.estimate.mean
                         << " vs SMARTS " << rs.estimate.mean;
}

TEST_F(SampledRun, RsrAppliesFarFewerUpdatesThanSmarts)
{
    auto smarts = makePolicyByName("smarts");
    auto rsr = makePolicyByName("rsr20");
    const auto rs = runSampled(*prog, *smarts, *cfg);
    const auto rr = runSampled(*prog, *rsr, *cfg);
    EXPECT_LT(rr.warmWork.totalUpdates() * 3, rs.warmWork.totalUpdates());
    EXPECT_GT(rr.warmWork.loggedRecords, 0u);
    EXPECT_GT(rr.warmWork.peakLogBytes, 0u);
}

TEST_F(SampledRun, HigherFractionAppliesMoreCacheUpdates)
{
    auto r20 = makePolicyByName("rcache20");
    auto r80 = makePolicyByName("rcache80");
    const auto a = runSampled(*prog, *r20, *cfg);
    const auto b = runSampled(*prog, *r80, *cfg);
    EXPECT_LT(a.warmWork.reconstructionUpdates,
              b.warmWork.reconstructionUpdates);
    // The log itself is identical: everything is always recorded.
    EXPECT_EQ(a.warmWork.loggedRecords, b.warmWork.loggedRecords);
}

TEST_F(SampledRun, FixedPeriodUpdatesScaleWithFraction)
{
    auto f20 = makePolicyByName("fp20");
    auto f80 = makePolicyByName("fp80");
    const auto a = runSampled(*prog, *f20, *cfg);
    const auto b = runSampled(*prog, *f80, *cfg);
    EXPECT_GT(b.warmWork.functionalUpdates,
              3 * a.warmWork.functionalUpdates);
}

TEST_F(SampledRun, SmartsUpdatesBoundedByPolicyScope)
{
    auto cache_only = makePolicyByName("scache");
    auto bp_only = makePolicyByName("sbp");
    auto both = makePolicyByName("smarts");
    const auto rc = runSampled(*prog, *cache_only, *cfg);
    const auto rb = runSampled(*prog, *bp_only, *cfg);
    const auto rboth = runSampled(*prog, *both, *cfg);
    EXPECT_EQ(rboth.warmWork.functionalUpdates,
              rc.warmWork.functionalUpdates +
                  rb.warmWork.functionalUpdates);
}

TEST_F(SampledRun, PolicyNames)
{
    EXPECT_EQ(makePolicyByName("none")->name(), "None");
    EXPECT_EQ(makePolicyByName("smarts")->name(), "S$BP");
    EXPECT_EQ(makePolicyByName("scache")->name(), "S$");
    EXPECT_EQ(makePolicyByName("sbp")->name(), "SBP");
    EXPECT_EQ(makePolicyByName("fp40")->name(), "FP (40%)");
    EXPECT_EQ(makePolicyByName("rsr20")->name(), "R$BP (20%)");
    EXPECT_EQ(makePolicyByName("rcache80")->name(), "R$ (80%)");
    EXPECT_EQ(makePolicyByName("rbp")->name(), "RBP");
}

TEST_F(SampledRun, Table2PolicyListComplete)
{
    ASSERT_EQ(table2PolicyNames().size(), 16u);
    std::vector<std::string> names;
    for (const std::string &name : table2PolicyNames())
        names.push_back(makePolicyByName(name)->name());
    for (const char *want :
         {"None", "FP (20%)", "FP (40%)", "FP (80%)", "S$", "SBP", "S$BP",
          "R$ (20%)", "R$ (40%)", "R$ (80%)", "R$ (100%)", "RBP",
          "R$BP (20%)", "R$BP (40%)", "R$BP (80%)", "R$BP (100%)"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), want),
                  names.end())
            << want;
    }
}

TEST_F(SampledRun, EstimateConsistentWithClusterIpcs)
{
    auto none = makePolicyByName("none");
    const auto r = runSampled(*prog, *none, *cfg);
    const auto e = summarizeClusters(r.clusterIpc);
    EXPECT_DOUBLE_EQ(r.estimate.mean, e.mean);
    EXPECT_DOUBLE_EQ(r.estimate.stdErr, e.stdErr);
}

TEST_F(SampledRun, AggregateIpcPositiveAndBounded)
{
    auto none = makePolicyByName("none");
    const auto r = runSampled(*prog, *none, *cfg);
    EXPECT_GT(r.aggregateIpc(), 0.0);
    EXPECT_LE(r.aggregateIpc(), 4.0);
}

TEST(SampledEdge, FullCoverageRegimen)
{
    // Clusters covering the entire population: skip regions are empty
    // and every policy degenerates to contiguous simulation.
    workload::WorkloadParams p = workload::standardWorkloadParams("twolf");
    const auto prog = workload::buildSynthetic(p);
    SampledConfig cfg;
    cfg.totalInsts = 40'000;
    cfg.regimen = {10, 4000};
    cfg.machine = MachineConfig::scaledDefault();
    auto rsr = makePolicyByName("rsr20");
    const auto r = runSampled(prog, *rsr, cfg);
    EXPECT_EQ(r.hotInsts, 40'000u);
    EXPECT_EQ(r.skippedInsts, 0u);
}

TEST(SampledEdge, SingleCluster)
{
    workload::WorkloadParams p = workload::standardWorkloadParams("twolf");
    const auto prog = workload::buildSynthetic(p);
    SampledConfig cfg;
    cfg.totalInsts = 100'000;
    cfg.regimen = {1, 5000};
    cfg.machine = MachineConfig::scaledDefault();
    auto smarts = makePolicyByName("smarts");
    const auto r = runSampled(prog, *smarts, cfg);
    EXPECT_EQ(r.clusterIpc.size(), 1u);
    EXPECT_DOUBLE_EQ(r.estimate.stdErr, 0.0);
}

} // namespace
} // namespace rsr::core
