/**
 * @file
 * Tests for the extension features: the MRRL-style profiled warm-up
 * baseline and the apply-to-stale PHT resolution mode.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/livepoint_store.hh"
#include "core/reuse_latency.hh"
#include "core/sampled_sim.hh"
#include "core/warmup.hh"
#include "harness/estimator_run.hh"
#include "harness/parallel_run.hh"
#include "util/deadline.hh"
#include "util/error.hh"
#include "workload/synthetic.hh"

namespace rsr::core
{
namespace
{

using isa::BranchKind;

class MrrlFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        prog = new func::Program(workload::buildSynthetic(
            workload::standardWorkloadParams("twolf")));
        cfg = new SampledConfig();
        cfg->totalInsts = 400'000;
        cfg->regimen = {12, 2000};
        cfg->machine = MachineConfig::scaledDefault();
        Rng rng(cfg->scheduleSeed);
        schedule = new std::vector<Cluster>(
            makeSchedule(cfg->regimen, cfg->totalInsts, rng));
    }

    static void
    TearDownTestSuite()
    {
        delete prog;
        delete cfg;
        delete schedule;
    }

    static func::Program *prog;
    static SampledConfig *cfg;
    static std::vector<Cluster> *schedule;
};

func::Program *MrrlFixture::prog = nullptr;
SampledConfig *MrrlFixture::cfg = nullptr;
std::vector<Cluster> *MrrlFixture::schedule = nullptr;

TEST_F(MrrlFixture, ProfileShapes)
{
    const auto profile = profileReuseLatency(*prog, *schedule,
                                             ReuseLatencyKind::Blrl, 0.995);
    ASSERT_EQ(profile.warmupLengths.size(), schedule->size());
    EXPECT_EQ(profile.profiledInsts,
              schedule->back().start + schedule->back().size);
    for (std::size_t i = 0; i < schedule->size(); ++i) {
        const std::uint64_t skip_len =
            i == 0 ? (*schedule)[0].start
                   : (*schedule)[i].start - ((*schedule)[i - 1].start +
                                             (*schedule)[i - 1].size);
        EXPECT_LE(profile.warmupLengths[i], skip_len);
    }
}

TEST_F(MrrlFixture, HigherPercentileWarmsMore)
{
    const auto lo = profileReuseLatency(*prog, *schedule,
                                        ReuseLatencyKind::Blrl, 0.5);
    const auto hi = profileReuseLatency(*prog, *schedule,
                                        ReuseLatencyKind::Blrl, 0.999);
    std::uint64_t lo_total = 0, hi_total = 0;
    for (std::size_t i = 0; i < lo.warmupLengths.size(); ++i) {
        lo_total += lo.warmupLengths[i];
        hi_total += hi.warmupLengths[i];
        EXPECT_LE(lo.warmupLengths[i], hi.warmupLengths[i]);
    }
    EXPECT_LT(lo_total, hi_total);
}

TEST_F(MrrlFixture, PolicyRunsAndWarms)
{
    FunctionalWarmup policy(ReuseLatencyKind::Blrl, 0.995);
    EXPECT_EQ(policy.name(), "BLRL");
    const auto r = runSampled(*prog, policy, *cfg);
    EXPECT_EQ(r.clusterIpc.size(), cfg->regimen.numClusters);
    EXPECT_GT(r.warmWork.functionalUpdates, 0u);
}

TEST_F(MrrlFixture, AccuracyBetweenNoneAndSmarts)
{
    const double true_ipc =
        runFull(*prog, cfg->totalInsts, cfg->machine).ipc();
    auto none = makePolicyByName("none");
    auto smarts = makePolicyByName("smarts");
    FunctionalWarmup mrrl(ReuseLatencyKind::Mrrl, 0.995);
    const double e_none =
        runSampled(*prog, *none, *cfg).estimate.relativeError(true_ipc);
    const double e_smarts =
        runSampled(*prog, *smarts, *cfg).estimate.relativeError(true_ipc);
    const double e_mrrl =
        runSampled(*prog, mrrl, *cfg).estimate.relativeError(true_ipc);
    EXPECT_LT(e_mrrl, e_none);
    // MRRL approximates SMARTS; allow generous slack on a short run.
    EXPECT_LT(e_mrrl, e_smarts + 0.08);
}

TEST_F(MrrlFixture, MrrlAndBlrlBothValid)
{
    const auto mrrl = profileReuseLatency(*prog, *schedule,
                                          ReuseLatencyKind::Mrrl, 0.995);
    const auto blrl = profileReuseLatency(*prog, *schedule,
                                          ReuseLatencyKind::Blrl, 0.995);
    ASSERT_EQ(mrrl.warmupLengths.size(), blrl.warmupLengths.size());
    EXPECT_EQ(mrrl.kind, ReuseLatencyKind::Mrrl);
    EXPECT_EQ(blrl.kind, ReuseLatencyKind::Blrl);
    // Both are clamped to their skip regions; the distributions differ
    // (MRRL counts every in-window reuse, BLRL only boundary crossings),
    // so at least one region should see a different choice.
    bool any_diff = false;
    std::uint64_t mrrl_total = 0;
    for (std::size_t i = 0; i < mrrl.warmupLengths.size(); ++i) {
        any_diff |= mrrl.warmupLengths[i] != blrl.warmupLengths[i];
        mrrl_total += mrrl.warmupLengths[i];
    }
    EXPECT_TRUE(any_diff);
    EXPECT_GT(mrrl_total, 0u);
}

TEST_F(MrrlFixture, MrrlPolicyName)
{
    FunctionalWarmup policy(ReuseLatencyKind::Mrrl, 0.9);
    EXPECT_EQ(policy.name(), "MRRL");
}

TEST_F(MrrlFixture, ReuseLatencyPoliciesRunOnEverySampledRunSurface)
{
    // mrrl/blrl build by name like every other policy and profile the
    // schedule each run measures, so the direct run (`rsr_sim run`), the
    // policy sweep, the estimator pipeline and a store agree.
    for (const char *name : {"mrrl", "blrl"}) {
        const auto policy = makePolicyByName(name);
        const auto direct =
            harness::runSampledParallel(*prog, *policy, *cfg, 1);
        const auto *profiled =
            dynamic_cast<const FunctionalWarmup *>(policy.get());
        ASSERT_NE(profiled, nullptr) << name;
        const auto kind = std::string(name) == "mrrl"
                              ? ReuseLatencyKind::Mrrl
                              : ReuseLatencyKind::Blrl;
        EXPECT_EQ(profiled->profile().warmupLengths,
                  profileReuseLatency(*prog, *schedule, kind)
                      .warmupLengths)
            << name;

        const auto sweep = harness::runPolicySweep(*prog, {name}, *cfg, 2);
        EXPECT_EQ(sweep[0].result.clusterIpc, direct.clusterIpc) << name;
        EXPECT_EQ(harness::runEstimator(*prog, name, *cfg,
                                        EstimatorOptions{}, 3)
                      .sampled.clusterIpc,
                  direct.clusterIpc)
            << name;
        const auto store = LivePointStore::create(
            *prog, *makePolicyByName(name), *cfg, "twolf", name);
        const auto replayed =
            harness::replayStoreParallel(store, cfg->machine, 2);
        EXPECT_EQ(replayed.clusterIpc, direct.clusterIpc) << name;
        EXPECT_EQ(replayed.estimate.mean, direct.estimate.mean) << name;

        // Ranked-set sampling measures an explicit schedule; its store
        // replays that run's estimate.
        EstimatorOptions ranked;
        ranked.kind = SamplingPolicyKind::RankedSet;
        SampledConfig budget = *cfg;
        budget.regimen.numClusters = 4;
        const auto est = harness::runEstimator(*prog, name, budget, ranked, 2);
        const auto est_replayed = harness::replayStoreParallel(
            harness::captureEstimatorStore(*prog, name, budget, ranked,
                                           "twolf"),
            budget.machine, 2);
        ASSERT_EQ(est.sampled.clusterIpc.size(), 4u) << name;
        EXPECT_EQ(est_replayed.clusterIpc, est.sampled.clusterIpc) << name;
        EXPECT_EQ(est_replayed.estimate.mean, est.sampled.estimate.mean) << name;
    }
}

TEST_F(MrrlFixture, ProfilingPassHonoursTheRunDeadline)
{
    // The profiling pass is a functional run over the population: an
    // expired deadline cancels it with a TimeoutError, whether it is
    // called directly or through the policy's prepare() from the driver.
    const Deadline expired(1e-9);
    while (!expired.expired()) {
    }
    EXPECT_THROW(profileReuseLatency(*prog, *schedule, ReuseLatencyKind::Mrrl,
                                     0.995, &expired),
                 TimeoutError);
    FunctionalWarmup blrl(ReuseLatencyKind::Blrl);
    EXPECT_THROW(blrl.prepare(*prog, *schedule, &expired), TimeoutError);

    SampledConfig timed = *cfg;
    timed.deadline = &expired;
    try {
        runSampled(*prog, *makePolicyByName("mrrl"), timed);
        FAIL() << "expired deadline did not cancel the run";
    } catch (const TimeoutError &e) {
        EXPECT_NE(std::string(e.what()).find("reuse-latency profiling"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ApplyToStale, NameTagged)
{
    ReverseReconstructionWarmup p(true, true, 0.2,
                                  PhtResolveMode::ApplyToStale);
    EXPECT_EQ(p.name(), "R$BP (20%)+stale");
}

TEST(ApplyToStale, ExactWhenStaleValueWasCorrect)
{
    // If the stale counter equals the true pre-skip value, composing the
    // observed outcomes onto it reproduces the trained value exactly,
    // even when the possible-state set is ambiguous.
    branch::PredictorParams pp;
    pp.phtEntries = 256;
    pp.historyBits = 8;
    pp.btbEntries = 16;
    pp.rasEntries = 4;
    branch::GsharePredictor truth(pp), rsr(pp);

    const std::uint64_t pc = 0x4000;
    // Pre-skip: both predictors agree (entry trained to strongly taken
    // under history 0).
    for (int i = 0; i < 3; ++i) {
        truth.setGhr(0);
        truth.warmApply(pc, BranchKind::Conditional, true, pc + 32);
        rsr.setGhr(0);
        rsr.warmApply(pc, BranchKind::Conditional, true, pc + 32);
    }
    truth.setGhr(0);
    rsr.setGhr(0);

    // Skip region: a single not-taken outcome (ambiguous set {0,1,2}).
    SkipLog log;
    log.ghrAtStart = 0;
    log.branches.push_back({pc, pc + 4, BranchKind::Conditional, false});
    truth.warmApply(pc, BranchKind::Conditional, false, pc + 4);

    BranchReconstructor recon(rsr, PhtResolveMode::ApplyToStale);
    recon.begin(log);
    recon.ensurePht(rsr.phtIndexWith(pc, 0));
    EXPECT_EQ(rsr.phtEntry(rsr.phtIndexWith(pc, 0)),
              truth.phtEntry(truth.phtIndexWith(pc, 0)));
    recon.end();
}

TEST(ApplyToStale, EndToEndAtLeastAsAccurateHere)
{
    // On a branchy workload the extension should not be (much) worse
    // than the paper's tie-break; typically it is better.
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("parser"));
    SampledConfig cfg;
    cfg.totalInsts = 600'000;
    cfg.regimen = {20, 2000};
    cfg.machine = MachineConfig::scaledDefault();
    const double true_ipc =
        runFull(prog, cfg.totalInsts, cfg.machine).ipc();

    ReverseReconstructionWarmup paper(true, true, 1.0,
                                      PhtResolveMode::PaperTieBreak);
    ReverseReconstructionWarmup stale(true, true, 1.0,
                                      PhtResolveMode::ApplyToStale);
    const double e_paper =
        runSampled(prog, paper, cfg).estimate.relativeError(true_ipc);
    const double e_stale =
        runSampled(prog, stale, cfg).estimate.relativeError(true_ipc);
    EXPECT_LT(e_stale, e_paper + 0.05);
}

} // namespace
} // namespace rsr::core
