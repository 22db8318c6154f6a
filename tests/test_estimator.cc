/**
 * @file
 * Estimator-policy tests: closed-form fixtures for the matched-pair and
 * ranked-set / stratified statistics, seeded-determinism and structural
 * properties of the selection plans and the Neyman allocation, and the
 * Table-2-style equivalence suite — a ranked-set or two-phase run must
 * be bit-identical across worker counts and direct-vs-live-point-store
 * execution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/estimator.hh"
#include "core/livepoint_store.hh"
#include "harness/estimator_run.hh"
#include "harness/parallel_run.hh"
#include "core/warmup.hh"
#include "util/error.hh"
#include "util/random.hh"
#include "workload/synthetic.hh"

namespace rsr::harness
{
namespace
{

using core::EstimatorOptions;
using core::ProxyKind;
using core::SamplingPolicyKind;

// ---------------------------------------------------- matched-pair math

TEST(EstimatorMath, TQuantileTable)
{
    EXPECT_DOUBLE_EQ(core::tQuantile975(0), 0.0);
    EXPECT_DOUBLE_EQ(core::tQuantile975(1), 12.706);
    EXPECT_DOUBLE_EQ(core::tQuantile975(2), 4.303);
    EXPECT_DOUBLE_EQ(core::tQuantile975(10), 2.228);
    EXPECT_DOUBLE_EQ(core::tQuantile975(30), 2.042);
    EXPECT_DOUBLE_EQ(core::tQuantile975(31), 1.96);
    EXPECT_DOUBLE_EQ(core::tQuantile975(10'000), 1.96);
}

TEST(EstimatorMath, MatchedPairClosedForm)
{
    // Diffs {-1, 0, 1}: mean 0, sd 1, stderr 1/sqrt(3), t_2 = 4.303.
    const auto c = core::matchedPairCompare({1.0, 2.0, 3.0},
                                            {2.0, 2.0, 2.0});
    EXPECT_EQ(c.pairs, 3u);
    EXPECT_DOUBLE_EQ(c.meanDiff, 0.0);
    EXPECT_DOUBLE_EQ(c.stddev, 1.0);
    EXPECT_DOUBLE_EQ(c.stdErr, 1.0 / std::sqrt(3.0));
    EXPECT_DOUBLE_EQ(c.ciHigh, 4.303 / std::sqrt(3.0));
    EXPECT_DOUBLE_EQ(c.ciLow, -4.303 / std::sqrt(3.0));
    EXPECT_FALSE(c.significant());
}

TEST(EstimatorMath, MatchedPairConstantShiftIsSignificant)
{
    // Identical-variance pairs shifted by a constant: the differences
    // have zero spread, so the CI collapses onto the shift.
    const auto c = core::matchedPairCompare({1.5, 2.5, 0.5, 3.5},
                                            {1.0, 2.0, 0.0, 3.0});
    EXPECT_DOUBLE_EQ(c.meanDiff, 0.5);
    EXPECT_DOUBLE_EQ(c.stdErr, 0.0);
    EXPECT_DOUBLE_EQ(c.ciLow, 0.5);
    EXPECT_DOUBLE_EQ(c.ciHigh, 0.5);
    EXPECT_TRUE(c.significant());
}

TEST(EstimatorMath, MatchedPairSinglePairIsDegenerate)
{
    const auto c = core::matchedPairCompare({2.0}, {1.0});
    EXPECT_EQ(c.pairs, 1u);
    EXPECT_DOUBLE_EQ(c.meanDiff, 1.0);
    EXPECT_DOUBLE_EQ(c.stdErr, 0.0);
    EXPECT_DOUBLE_EQ(c.ciLow, 1.0);
    EXPECT_DOUBLE_EQ(c.ciHigh, 1.0);
    EXPECT_FALSE(c.significant());
}

TEST(EstimatorMath, MatchedPairLengthMismatchThrows)
{
    EXPECT_THROW(core::matchedPairCompare({1.0}, {1.0, 2.0}), UserError);
}

// -------------------------------------------- point-estimate closed forms

TEST(EstimatorMath, RankedSetEstimateClosedForm)
{
    // Two rank classes of two: class 0 = {1,3}, class 1 = {2,4}.
    // Mean of class means = 2.5; Var = (1/4)(2/2 + 2/2) = 0.5.
    const auto est = core::rankedSetEstimate({1.0, 2.0, 3.0, 4.0},
                                             {0, 1, 0, 1}, 2);
    EXPECT_EQ(est.numClusters, 4u);
    EXPECT_DOUBLE_EQ(est.mean, 2.5);
    EXPECT_DOUBLE_EQ(est.stdErr, std::sqrt(0.5));
    EXPECT_DOUBLE_EQ(est.stddev, std::sqrt(5.0 / 3.0));
    EXPECT_DOUBLE_EQ(est.ciHigh, 2.5 + 1.96 * std::sqrt(0.5));
}

TEST(EstimatorMath, RankedSetSingletonClassFallsBackToSrs)
{
    // Class 1 has one measurement: no within-class variance, so the
    // standard error falls back to the pooled SRS formula.
    const auto est =
        core::rankedSetEstimate({1.0, 2.0, 3.0}, {0, 1, 0}, 2);
    const double pooled_sd = std::sqrt(1.0); // var of {1,2,3}
    EXPECT_DOUBLE_EQ(est.mean, (2.0 + 2.0) / 2.0);
    EXPECT_DOUBLE_EQ(est.stdErr, pooled_sd / std::sqrt(3.0));
}

TEST(EstimatorMath, StratifiedEstimateClosedForm)
{
    // Stratum 0 = {1,2} (n=2), stratum 1 = {10} (n=1, borrows the
    // pooled within-stratum variance 0.5). Equal candidate weights.
    const auto est =
        core::stratifiedEstimate({1.0, 2.0, 10.0}, {0, 0, 1}, {2, 2});
    EXPECT_DOUBLE_EQ(est.mean, 0.5 * 1.5 + 0.5 * 10.0);
    EXPECT_DOUBLE_EQ(est.stdErr,
                     std::sqrt(0.25 * 0.5 / 2.0 + 0.25 * 0.5 / 1.0));
    EXPECT_DOUBLE_EQ(est.stddev, est.stdErr * std::sqrt(3.0));
}

// ----------------------------------------------------- selection plans

std::vector<double>
randomScores(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> s(n);
    for (double &v : s)
        v = rng.uniform();
    return s;
}

void
expectWellFormedPlan(const core::SelectionPlan &plan,
                     std::size_t candidate_count)
{
    ASSERT_EQ(plan.chosen.size(), plan.group.size());
    EXPECT_TRUE(std::is_sorted(plan.chosen.begin(), plan.chosen.end()));
    const std::set<std::size_t> uniq(plan.chosen.begin(),
                                     plan.chosen.end());
    EXPECT_EQ(uniq.size(), plan.chosen.size());
    for (const std::size_t c : plan.chosen)
        EXPECT_LT(c, candidate_count);
}

TEST(EstimatorSelect, RankedSetPlanIsSeededAndBalanced)
{
    EstimatorOptions opts;
    opts.kind = SamplingPolicyKind::RankedSet;
    opts.setSize = 4;
    const std::uint64_t budget = 12;
    const auto scores = randomScores(budget * opts.setSize, 0xabc);

    const auto plan = core::rankedSetSelect(scores, budget, opts);
    expectWellFormedPlan(plan, scores.size());
    EXPECT_EQ(plan.chosen.size(), budget);

    // Repeated subsampling: every rank class gets budget/m measurements.
    std::vector<unsigned> per_class(opts.setSize, 0);
    for (const std::uint32_t g : plan.group) {
        ASSERT_LT(g, opts.setSize);
        ++per_class[g];
    }
    for (const unsigned n : per_class)
        EXPECT_EQ(n, budget / opts.setSize);

    // Same seed, same plan; different seed, different plan.
    const auto again = core::rankedSetSelect(scores, budget, opts);
    EXPECT_EQ(plan.chosen, again.chosen);
    EXPECT_EQ(plan.group, again.group);
    opts.rankSeed ^= 1;
    const auto other = core::rankedSetSelect(scores, budget, opts);
    EXPECT_NE(plan.chosen, other.chosen);
}

TEST(EstimatorSelect, EffectiveRankedSetBudgetRounds)
{
    EstimatorOptions opts;
    opts.setSize = 4;
    EXPECT_EQ(core::effectiveRankedSetBudget(12, opts), 12u);
    EXPECT_EQ(core::effectiveRankedSetBudget(10, opts), 8u);
    EXPECT_EQ(core::effectiveRankedSetBudget(2, opts), 4u);
}

TEST(EstimatorSelect, StratifyByScoreMakesEqualQuantiles)
{
    const auto scores = randomScores(10, 0x51);
    const auto plan = core::stratifyByScore(scores, 4);
    ASSERT_EQ(plan.stratumOf.size(), scores.size());
    EXPECT_EQ(plan.stratumSize,
              core::quantileStratumSizes(scores.size(), 4));

    // Stratum ids are monotone in the proxy score: everything in
    // stratum h scores at or below everything in stratum h+1.
    for (std::size_t a = 0; a < scores.size(); ++a)
        for (std::size_t b = 0; b < scores.size(); ++b)
            if (plan.stratumOf[a] < plan.stratumOf[b]) {
                EXPECT_LE(scores[a], scores[b]);
            }
}

TEST(EstimatorSelect, QuantileStratumSizesSplitEqually)
{
    EXPECT_EQ(core::quantileStratumSizes(10, 4),
              (std::vector<std::uint64_t>{3, 3, 2, 2}));
    EXPECT_EQ(core::quantileStratumSizes(8, 4),
              (std::vector<std::uint64_t>{2, 2, 2, 2}));
    // Fewer candidates than strata: one singleton stratum each.
    EXPECT_EQ(core::quantileStratumSizes(2, 4),
              (std::vector<std::uint64_t>{1, 1}));
    EXPECT_EQ(core::quantileStratumSizes(5, 1),
              (std::vector<std::uint64_t>{5}));
}

TEST(EstimatorSelect, PilotSelectDrawsPerStratum)
{
    const auto scores = randomScores(20, 0x77);
    const auto strata = core::stratifyByScore(scores, 4);
    const auto pilot = core::pilotSelect(strata, 2, 0x123);
    expectWellFormedPlan(pilot, scores.size());
    EXPECT_EQ(pilot.chosen.size(), 8u);

    std::vector<unsigned> per_stratum(4, 0);
    for (std::size_t i = 0; i < pilot.chosen.size(); ++i) {
        EXPECT_EQ(pilot.group[i], strata.stratumOf[pilot.chosen[i]]);
        ++per_stratum[pilot.group[i]];
    }
    for (const unsigned n : per_stratum)
        EXPECT_EQ(n, 2u);

    const auto again = core::pilotSelect(strata, 2, 0x123);
    EXPECT_EQ(pilot.chosen, again.chosen);
    const auto other = core::pilotSelect(strata, 2, 0x124);
    EXPECT_NE(pilot.chosen, other.chosen);
}

TEST(EstimatorSelect, NeymanAllocationExactOnCleanWeights)
{
    // N_h * sigma_h = {0, 10, 20, 10}: budget 12 splits {0, 3, 6, 3}.
    const auto got = core::allocateNeyman({0.0, 1.0, 2.0, 1.0},
                                          {10, 10, 10, 10},
                                          {8, 8, 8, 8}, 12);
    EXPECT_EQ(got, (std::vector<std::uint64_t>{0, 3, 6, 3}));
}

TEST(EstimatorSelect, NeymanAllocationRespectsCaps)
{
    const auto got = core::allocateNeyman({0.0, 1.0, 2.0, 1.0},
                                          {10, 10, 10, 10},
                                          {8, 8, 8, 8}, 40);
    std::uint64_t total = 0;
    for (std::size_t h = 0; h < got.size(); ++h) {
        EXPECT_LE(got[h], 8u);
        total += got[h];
    }
    EXPECT_EQ(total, 32u); // min(budget, sum of caps)
}

TEST(EstimatorSelect, NeymanAllocationFallsBackToProportional)
{
    // All-zero pilot sigma: allocate by stratum size instead.
    const auto got = core::allocateNeyman({0.0, 0.0, 0.0, 0.0},
                                          {10, 20, 30, 40},
                                          {10, 20, 30, 40}, 10);
    EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST(EstimatorSelect, FinalStratifiedSelectIsAUnionPlan)
{
    const auto scores = randomScores(24, 0x99);
    const auto strata = core::stratifyByScore(scores, 4);
    const auto pilot = core::pilotSelect(strata, 2, 0x42);
    const std::vector<std::uint64_t> extra{1, 0, 2, 1};

    const auto final_plan =
        core::finalStratifiedSelect(strata, pilot, extra, 0x42);
    expectWellFormedPlan(final_plan, scores.size());
    EXPECT_EQ(final_plan.chosen.size(), pilot.chosen.size() + 4u);

    // Every pilot candidate is re-measured by the union schedule.
    const std::set<std::size_t> final_set(final_plan.chosen.begin(),
                                          final_plan.chosen.end());
    for (const std::size_t c : pilot.chosen)
        EXPECT_TRUE(final_set.count(c));
    for (std::size_t i = 0; i < final_plan.chosen.size(); ++i)
        EXPECT_EQ(final_plan.group[i],
                  strata.stratumOf[final_plan.chosen[i]]);
}

TEST(EstimatorSelect, CandidateCountPerKind)
{
    EstimatorOptions opts;
    opts.setSize = 4;
    opts.kind = SamplingPolicyKind::UniformCluster;
    EXPECT_EQ(estimatorCandidateCount(10, opts), 10u);
    opts.kind = SamplingPolicyKind::RankedSet;
    EXPECT_EQ(estimatorCandidateCount(10, opts), 32u); // 8 sets of 4
    opts.kind = SamplingPolicyKind::TwoPhaseStratified;
    EXPECT_EQ(estimatorCandidateCount(10, opts), 40u);
}

TEST(EstimatorSelect, NamesRoundTrip)
{
    for (const auto kind : {SamplingPolicyKind::UniformCluster,
                            SamplingPolicyKind::RankedSet,
                            SamplingPolicyKind::TwoPhaseStratified})
        EXPECT_EQ(core::samplingPolicyByName(
                      core::samplingPolicyName(kind)), kind);
    for (const auto proxy : {ProxyKind::FuncIpc, ProxyKind::BbvDistance})
        EXPECT_EQ(core::proxyKindByName(core::proxyKindName(proxy)),
                  proxy);
    EXPECT_THROW(core::samplingPolicyByName("bogus"), UserError);
    EXPECT_THROW(core::proxyKindByName("bogus"), UserError);
}

// ----------------------------------------- end-to-end equivalence suite

class EstimatorRun : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        prog = new func::Program(workload::buildSynthetic(
            workload::standardWorkloadParams("twolf")));
        cfg = new core::SampledConfig();
        cfg->totalInsts = 300'000;
        cfg->regimen = {12, 2000};
        cfg->machine = core::MachineConfig::scaledDefault();
    }

    static void
    TearDownTestSuite()
    {
        delete prog;
        delete cfg;
    }

    static EstimatorOptions
    rankedOpts()
    {
        EstimatorOptions o;
        o.kind = SamplingPolicyKind::RankedSet;
        o.setSize = 4;
        return o;
    }

    static EstimatorOptions
    twoPhaseOpts()
    {
        EstimatorOptions o;
        o.kind = SamplingPolicyKind::TwoPhaseStratified;
        o.setSize = 4;
        o.strata = 4;
        o.phase1PerStratum = 2;
        return o;
    }

    static void
    expectSameRun(const EstimatorRunResult &a, const EstimatorRunResult &b)
    {
        EXPECT_EQ(a.sampled.clusterIpc, b.sampled.clusterIpc);
        EXPECT_EQ(a.sampled.estimate.mean, b.sampled.estimate.mean);
        EXPECT_EQ(a.sampled.estimate.stdErr, b.sampled.estimate.stdErr);
        EXPECT_EQ(a.groups, b.groups);
        ASSERT_EQ(a.schedule.size(), b.schedule.size());
        for (std::size_t i = 0; i < a.schedule.size(); ++i) {
            EXPECT_EQ(a.schedule[i].start, b.schedule[i].start);
            EXPECT_EQ(a.schedule[i].size, b.schedule[i].size);
        }
        EXPECT_EQ(a.candidateCount, b.candidateCount);
        // pilotMeasuredInsts deliberately not compared: store replay
        // skips the pilot (the capture already paid it) yet must still
        // reproduce the estimate bit-exactly.
    }

    /** A store replay in the shape of a direct run: the measurement,
     *  plus the schedule, groups and pool size the store recorded. */
    static EstimatorRunResult
    replayed(const core::LivePointStore &store, unsigned jobs)
    {
        EstimatorRunResult out;
        out.sampled = replayStoreParallel(store, cfg->machine, jobs);
        for (const core::LivePointEntry &e : store.entries()) {
            out.schedule.push_back(e.cluster);
            out.groups.push_back(e.group);
        }
        out.candidateCount = store.meta().candidateCount;
        return out;
    }

    static func::Program *prog;
    static core::SampledConfig *cfg;
};

func::Program *EstimatorRun::prog = nullptr;
core::SampledConfig *EstimatorRun::cfg = nullptr;

TEST_F(EstimatorRun, UniformKindMatchesPlainParallelRun)
{
    EstimatorOptions uniform;
    const auto est = runEstimator(*prog, "smarts", *cfg, uniform, 2);
    auto policy = core::makePolicyByName("smarts");
    const auto plain = runSampledParallel(*prog, *policy, *cfg, 1);
    EXPECT_EQ(est.sampled.clusterIpc, plain.clusterIpc);
    EXPECT_EQ(est.sampled.estimate.mean, plain.estimate.mean);
    EXPECT_EQ(est.candidateCount, est.schedule.size());
    EXPECT_EQ(est.pilotMeasuredInsts, 0u);
}

TEST_F(EstimatorRun, RankedSetBitIdenticalAcrossJobs)
{
    const auto j1 = runEstimator(*prog, "rsr40", *cfg, rankedOpts(), 1);
    const auto j3 = runEstimator(*prog, "rsr40", *cfg, rankedOpts(), 3);
    const auto j4 = runEstimator(*prog, "rsr40", *cfg, rankedOpts(), 4);
    expectSameRun(j1, j3);
    expectSameRun(j1, j4);
    EXPECT_EQ(j1.schedule.size(), 12u);
    EXPECT_EQ(j1.candidateCount, 48u);
}

TEST_F(EstimatorRun, TwoPhaseBitIdenticalAcrossJobs)
{
    const auto j1 = runEstimator(*prog, "smarts", *cfg, twoPhaseOpts(), 1);
    const auto j3 = runEstimator(*prog, "smarts", *cfg, twoPhaseOpts(), 3);
    const auto j4 = runEstimator(*prog, "smarts", *cfg, twoPhaseOpts(), 4);
    expectSameRun(j1, j3);
    expectSameRun(j1, j4);
    // Union schedule: exactly the budget, pilot cost charged on top.
    EXPECT_EQ(j1.schedule.size(), 12u);
    EXPECT_EQ(j1.sampled.hotInsts, 12u * 2000u);
    EXPECT_EQ(j1.pilotMeasuredInsts, 8u * 2000u); // 4 strata x 2 pilots
    EXPECT_EQ(j1.measuredInsts(), 20u * 2000u);
}

TEST_F(EstimatorRun, BbvProxyBitIdenticalAcrossJobsAndStoreReplay)
{
    // The BBV proxy (simpoint::bbvCentroidDistance) ranks the candidates
    // for both estimators: every job count and a store replay must
    // reproduce the same selection and estimate.
    for (EstimatorOptions opts : {rankedOpts(), twoPhaseOpts()}) {
        opts.proxy = ProxyKind::BbvDistance;
        SCOPED_TRACE(core::samplingPolicyName(opts.kind));
        const auto j1 = runEstimator(*prog, "smarts", *cfg, opts, 1);
        expectSameRun(j1, runEstimator(*prog, "smarts", *cfg, opts, 3));
        expectSameRun(j1, runEstimator(*prog, "smarts", *cfg, opts, 4));
        EXPECT_EQ(j1.schedule.size(), 12u);
        const auto store =
            captureEstimatorStore(*prog, "smarts", *cfg, opts, "twolf");
        EXPECT_EQ(store.meta().estimator.proxy, ProxyKind::BbvDistance);
        expectSameRun(j1, replayed(store, 3));
    }
}

TEST_F(EstimatorRun, RankedSetStoreReplayMatchesDirectRun)
{
    const auto direct =
        runEstimator(*prog, "rsr40", *cfg, rankedOpts(), 1);
    const auto store = captureEstimatorStore(*prog, "rsr40", *cfg,
                                             rankedOpts(), "twolf");
    expectSameRun(direct, replayed(store, 3));
}

TEST_F(EstimatorRun, TwoPhaseStoreSurvivesSerializationRoundTrip)
{
    const auto direct =
        runEstimator(*prog, "smarts", *cfg, twoPhaseOpts(), 1);
    const auto store = captureEstimatorStore(*prog, "smarts", *cfg,
                                             twoPhaseOpts(), "twolf");
    // Round-trip through bytes: the index must preserve the
    // estimator annotations that drive the stratified estimate.
    const auto reloaded =
        core::LivePointStore::deserialize(store.serialize());
    EXPECT_EQ(reloaded.meta().estimator.kind,
              SamplingPolicyKind::TwoPhaseStratified);
    EXPECT_EQ(reloaded.meta().candidateCount, 48u);
    EXPECT_EQ(reloaded.configHash(), store.configHash());

    expectSameRun(direct, replayed(reloaded, 4));
}

TEST_F(EstimatorRun, CaptureAnnotationsSurviveBytesAndRejectReorder)
{
    const auto store = captureEstimatorStore(*prog, "rsr40", *cfg,
                                             rankedOpts(), "twolf");
    // The index round-trips every capture annotation: estimator
    // options, candidate-pool size, and the per-cluster groups that
    // drive rankedSetEstimate() on replay.
    const auto reloaded =
        core::LivePointStore::deserialize(store.serialize());
    EXPECT_EQ(reloaded.meta().estimator.kind,
              SamplingPolicyKind::RankedSet);
    EXPECT_EQ(reloaded.meta().candidateCount, 48u);
    ASSERT_EQ(reloaded.entries().size(), store.entries().size());
    for (std::size_t i = 0; i < store.entries().size(); ++i)
        EXPECT_EQ(reloaded.entries()[i].group,
                  store.entries()[i].group)
            << i;

    // Reordering two adjacent differing 8-byte words of the index
    // payload (container header 24 bytes + index frame header 16
    // bytes) is the byte-level image of a member-order mismatch in
    // the index's snapshot()/restore() pair; the container's position-
    // sensitive index checksum must reject the store rather than
    // misparse it.
    auto bytes = store.serialize();
    ASSERT_GE(bytes.size(), 64u);
    bool swapped = false;
    for (std::size_t off = 40; off + 16 <= bytes.size() && !swapped;
         off += 8) {
        const auto word =
            bytes.begin() + static_cast<std::ptrdiff_t>(off);
        if (std::equal(word, word + 8, word + 8))
            continue;
        std::swap_ranges(word, word + 8, word + 8);
        swapped = true;
    }
    ASSERT_TRUE(swapped);
    EXPECT_THROW(core::LivePointStore::deserialize(std::move(bytes)),
                 CorruptInputError);
}

TEST_F(EstimatorRun, ConfigHashSeparatesEstimators)
{
    const auto base = core::LivePointStore::configHash(
        "twolf", "smarts", *cfg);
    EstimatorOptions uniform;
    EXPECT_EQ(core::LivePointStore::configHash("twolf", "smarts", *cfg,
                                               uniform, 12),
              base);
    const auto ranked = core::LivePointStore::configHash(
        "twolf", "smarts", *cfg, rankedOpts(), 48);
    EXPECT_NE(ranked, base);
    auto reseeded = rankedOpts();
    reseeded.rankSeed ^= 1;
    EXPECT_NE(core::LivePointStore::configHash("twolf", "smarts", *cfg,
                                               reseeded, 48),
              ranked);
}

TEST_F(EstimatorRun, OversizedCandidatePoolIsAUserError)
{
    core::SampledConfig small = *cfg;
    small.totalInsts = 50'000; // 48 candidates x 2000 insts don't fit
    EXPECT_THROW(
        runEstimator(*prog, "smarts", small, rankedOpts(), 1),
        UserError);
}

} // namespace
} // namespace rsr::harness
