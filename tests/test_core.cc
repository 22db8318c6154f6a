/**
 * @file
 * Core-module tests: sampling regimen and cluster schedules, cluster
 * statistics, the skip log, the cache reconstructor over a real
 * hierarchy, and the branch reconstructor (GHR, RAS, on-demand PHT/BTB).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/branch_reconstructor.hh"
#include "core/cache_reconstructor.hh"
#include "core/regimen.hh"
#include "core/skip_log.hh"
#include "core/statistics.hh"
#include "util/error.hh"
#include "util/random.hh"

namespace rsr::core
{
namespace
{

using isa::BranchKind;

// ---------------------------------------------------------------------------
// Regimen / schedule.
// ---------------------------------------------------------------------------

TEST(Schedule, SortedNonOverlappingInRange)
{
    Rng rng(1);
    const SamplingRegimen reg{50, 1000};
    const auto sched = makeSchedule(reg, 1'000'000, rng);
    ASSERT_EQ(sched.size(), 50u);
    std::uint64_t prev_end = 0;
    for (const auto &c : sched) {
        EXPECT_GE(c.start, prev_end);
        EXPECT_EQ(c.size, 1000u);
        prev_end = c.start + c.size;
    }
    EXPECT_LE(prev_end, 1'000'000u);
}

TEST(Schedule, ExactFitPopulation)
{
    Rng rng(2);
    const SamplingRegimen reg{10, 100};
    const auto sched = makeSchedule(reg, 1000, rng);
    for (std::size_t i = 0; i < sched.size(); ++i)
        EXPECT_EQ(sched[i].start, i * 100);
}

TEST(Schedule, DeterministicInSeed)
{
    Rng a(7), b(7), c(8);
    const SamplingRegimen reg{20, 500};
    const auto s1 = makeSchedule(reg, 500'000, a);
    const auto s2 = makeSchedule(reg, 500'000, b);
    const auto s3 = makeSchedule(reg, 500'000, c);
    for (std::size_t i = 0; i < s1.size(); ++i)
        EXPECT_EQ(s1[i].start, s2[i].start);
    bool any_diff = false;
    for (std::size_t i = 0; i < s1.size(); ++i)
        any_diff |= s1[i].start != s3[i].start;
    EXPECT_TRUE(any_diff);
}

TEST(Schedule, DegenerateRegimenIsAUserErrorNamingTheFlag)
{
    Rng rng(4);
    const struct
    {
        SamplingRegimen regimen;
        const char *flag;
    } cases[] = {
        {{0, 100}, "--clusters"},
        {{10, 0}, "--cluster-size"},
        {{60, 3000}, "--insts"},
        // n x size wraps to 0 in 64 bits: still more than the population.
        {{2, std::uint64_t{1} << 63}, "--insts"},
    };
    for (const auto &c : cases) {
        try {
            makeSchedule(c.regimen, 100'000, rng);
            ADD_FAILURE() << c.flag << " case was accepted";
        } catch (const UserError &e) {
            EXPECT_NE(std::string(e.what()).find(c.flag), std::string::npos)
                << e.what();
        }
    }
}

TEST(Schedule, StartsRoughlyUniform)
{
    Rng rng(3);
    const SamplingRegimen reg{1, 100};
    // Single cluster placed many times: mean start should be near the
    // middle of the population.
    double sum = 0;
    const int draws = 2000;
    for (int i = 0; i < draws; ++i)
        sum += static_cast<double>(makeSchedule(reg, 100'000, rng)[0].start);
    EXPECT_NEAR(sum / draws, 50'000, 3'000);
}

TEST(Schedule, RegimenSampledInsts)
{
    EXPECT_EQ((SamplingRegimen{40, 2000}).sampledInsts(), 80'000u);
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

TEST(Statistics, HandComputedExample)
{
    const std::vector<double> ipcs{1.0, 2.0, 3.0, 4.0};
    const auto e = summarizeClusters(ipcs);
    EXPECT_DOUBLE_EQ(e.mean, 2.5);
    // Sample stddev of {1,2,3,4} = sqrt(5/3).
    EXPECT_NEAR(e.stddev, std::sqrt(5.0 / 3.0), 1e-12);
    EXPECT_NEAR(e.stdErr, e.stddev / 2.0, 1e-12);
    EXPECT_NEAR(e.ciLow, 2.5 - 1.96 * e.stdErr, 1e-12);
    EXPECT_NEAR(e.ciHigh, 2.5 + 1.96 * e.stdErr, 1e-12);
}

TEST(Statistics, CiContainment)
{
    const auto e = summarizeClusters({1.0, 1.1, 0.9, 1.0, 1.05});
    EXPECT_TRUE(e.passesCi(1.0));
    EXPECT_FALSE(e.passesCi(2.0));
}

TEST(Statistics, RelativeError)
{
    ClusterEstimate e;
    e.mean = 0.9;
    EXPECT_NEAR(e.relativeError(1.0), 0.1, 1e-12);
    e.mean = 1.1;
    EXPECT_NEAR(e.relativeError(1.0), 0.1, 1e-12);
}

TEST(Statistics, SingleClusterNoVariance)
{
    const auto e = summarizeClusters({1.5});
    EXPECT_DOUBLE_EQ(e.mean, 1.5);
    EXPECT_DOUBLE_EQ(e.stdErr, 0.0);
    EXPECT_TRUE(e.passesCi(1.5));
}

TEST(Statistics, EmptyIsZero)
{
    const auto e = summarizeClusters({});
    EXPECT_DOUBLE_EQ(e.mean, 0.0);
    EXPECT_EQ(e.numClusters, 0u);
}

// ---------------------------------------------------------------------------
// Skip log.
// ---------------------------------------------------------------------------

TEST(SkipLog, MemRecordPacksFields)
{
    const MemRecord r(0x12344, 0xdeadbec0, true, false);
    EXPECT_EQ(r.pc(), 0x12344u);
    EXPECT_EQ(r.addr, 0xdeadbec0u);
    EXPECT_TRUE(r.isInstr());
    EXPECT_FALSE(r.isStore());
    const MemRecord s(0x40000, 0x100, false, true);
    EXPECT_FALSE(s.isInstr());
    EXPECT_TRUE(s.isStore());
}

TEST(SkipLog, MemLogSoaMatchesRecordForm)
{
    MemLog log;
    log.append(0x12344, 0xdeadbec0, true, false);
    log.append(0x40000, 0x100, false, true);
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log.pc(0), 0x12344u);
    EXPECT_EQ(log.addr(0), 0xdeadbec0u);
    EXPECT_TRUE(log.isInstr(0));
    EXPECT_FALSE(log.isStore(0));
    EXPECT_FALSE(log.isInstr(1));
    EXPECT_TRUE(log.isStore(1));
    // Round-trip through the AoS record form keeps the same packing.
    const MemRecord r = log.record(0);
    EXPECT_EQ(r.pc(), 0x12344u);
    EXPECT_EQ(r.addr, 0xdeadbec0u);
    EXPECT_EQ(log.bytes(), 2 * sizeof(MemRecord));
}

TEST(SkipLog, BytesAndClear)
{
    SkipLog log;
    log.mem.append(0, 0, false, false);
    log.branches.push_back({0x10, 0x20, BranchKind::Conditional, true});
    EXPECT_EQ(log.records(), 2u);
    EXPECT_GT(log.bytes(), 0u);
    log.clear();
    EXPECT_EQ(log.records(), 0u);
    EXPECT_EQ(log.bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Cache reconstructor over the full hierarchy.
// ---------------------------------------------------------------------------

TEST(CacheReconstructor, FractionSelectsLogTail)
{
    cache::HierarchyParams hp = cache::HierarchyParams::paperDefault();
    cache::MemoryHierarchy h(hp);
    MemLog log;
    // 100 distinct lines; with fraction 0.2 only the last 20 apply.
    for (int i = 0; i < 100; ++i)
        log.append(0x1000, 0x100000 + i * 64, false, false);
    const auto res = reconstructCaches(h, log, 0.2);
    EXPECT_EQ(res.refsScanned, 20u);
    for (int i = 80; i < 100; ++i)
        EXPECT_TRUE(h.dl1().probe(0x100000 + i * 64));
    for (int i = 0; i < 80; ++i)
        EXPECT_FALSE(h.dl1().probe(0x100000 + i * 64));
}

TEST(CacheReconstructor, InstrRefsGoToIl1)
{
    cache::MemoryHierarchy h(cache::HierarchyParams::paperDefault());
    MemLog log;
    log.append(0x5000, 0x5000, true, false);
    log.append(0x5000, 0x200000, false, false);
    reconstructCaches(h, log, 1.0);
    EXPECT_TRUE(h.il1().probe(0x5000));
    EXPECT_FALSE(h.dl1().probe(0x5000));
    EXPECT_TRUE(h.dl1().probe(0x200000));
    EXPECT_TRUE(h.l2().probe(0x5000));
    EXPECT_TRUE(h.l2().probe(0x200000));
}

TEST(CacheReconstructor, StoresAllocateUnderWtna)
{
    cache::MemoryHierarchy h(cache::HierarchyParams::paperDefault());
    MemLog log;
    log.append(0x5000, 0x300000, false, true);
    reconstructCaches(h, log, 1.0);
    // Paper Sec. 3.1: WTNA caches allocate even on writes during
    // reconstruction.
    EXPECT_TRUE(h.dl1().probe(0x300000));
}

TEST(CacheReconstructor, CountsIgnoredRefs)
{
    cache::MemoryHierarchy h(cache::HierarchyParams::paperDefault());
    MemLog log;
    for (int i = 0; i < 10; ++i)
        log.append(0x5000, 0x400000, false, false); // same line
    const auto res = reconstructCaches(h, log, 1.0);
    EXPECT_EQ(res.refsScanned, 10u);
    EXPECT_EQ(res.refsIgnored, 9u);
}

TEST(CacheReconstructor, EmptyLogIsNoop)
{
    cache::MemoryHierarchy h(cache::HierarchyParams::paperDefault());
    h.warmAccess(0x1000, false, false);
    const auto res = reconstructCaches(h, MemLog{}, 1.0);
    EXPECT_EQ(res.refsScanned, 0u);
    EXPECT_TRUE(h.dl1().probe(0x1000)); // stale content untouched
}

// ---------------------------------------------------------------------------
// Branch reconstructor.
// ---------------------------------------------------------------------------

branch::PredictorParams
smallBp()
{
    branch::PredictorParams p;
    p.phtEntries = 1024;
    p.historyBits = 8;
    p.btbEntries = 64;
    p.rasEntries = 4;
    return p;
}

TEST(BranchReconstructor, GhrRebuiltExactly)
{
    branch::GsharePredictor truth(smallBp()), rsr(smallBp());
    SkipLog log;
    log.ghrAtStart = 0x5a;
    truth.setGhr(0x5a);
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        const bool taken = rng.chance(0.6);
        const std::uint64_t pc = 0x1000 + 8 * (i % 13);
        truth.warmApply(pc, BranchKind::Conditional, taken, pc + 64);
        log.branches.push_back(
            {pc, pc + 64, BranchKind::Conditional, taken});
    }
    BranchReconstructor recon(rsr);
    recon.begin(log);
    EXPECT_EQ(rsr.ghr(), truth.ghr());
    recon.end();
}

TEST(BranchReconstructor, RasRebuiltExactly)
{
    // Random call/return sequences without underflow or overflow (the
    // hardware RAS wraps on overflow, silently losing entries the log
    // still knows about — see RasOverflowRestoresLogicalStack): the
    // reverse counter algorithm must reproduce the final RAS exactly.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        branch::GsharePredictor truth(smallBp()), rsr(smallBp());
        SkipLog log;
        Rng rng(seed);
        int depth = 0;
        std::uint64_t next_pc = 0x2000;
        for (int i = 0; i < 200; ++i) {
            const bool call =
                depth == 0 || (depth < 4 && rng.chance(0.55));
            const std::uint64_t pc = next_pc;
            next_pc += 4 * (1 + rng.below(8));
            if (call) {
                truth.warmApply(pc, BranchKind::Call, true, pc + 0x100);
                log.branches.push_back(
                    {pc, pc + 0x100, BranchKind::Call, true});
                ++depth;
            } else {
                truth.warmApply(pc, BranchKind::Return, true, pc - 0x80);
                log.branches.push_back(
                    {pc, pc - 0x80, BranchKind::Return, true});
                --depth;
            }
        }
        BranchReconstructor recon(rsr);
        recon.begin(log);
        EXPECT_EQ(rsr.rasContents(), truth.rasContents()) << seed;
        recon.end();
    }
}

TEST(BranchReconstructor, RasOverflowRestoresLogicalStack)
{
    // Five pushes overflow the 4-entry hardware RAS (the oldest entry is
    // overwritten); four pops then drain it. The reverse algorithm
    // restores the oldest push — it is still logically live in the log —
    // so reconstruction can be slightly *warmer* than the hardware here.
    branch::GsharePredictor bp(smallBp());
    SkipLog log;
    for (int i = 0; i < 5; ++i)
        log.branches.push_back({0x100ull + 16 * i, 0x1000,
                                BranchKind::Call, true});
    for (int i = 0; i < 4; ++i)
        log.branches.push_back({0x2000ull + 16 * i, 0x104,
                                BranchKind::Return, true});
    BranchReconstructor recon(bp);
    recon.begin(log);
    EXPECT_EQ(bp.rasContents(),
              std::vector<std::uint64_t>{0x100 + 4});
    recon.end();
}

TEST(BranchReconstructor, BtbOnDemandMatchesMostRecentTarget)
{
    branch::GsharePredictor bp(smallBp());
    SkipLog log;
    // Same indirect branch taken to two targets; the newer must win.
    log.branches.push_back(
        {0x3000, 0x5000, BranchKind::IndirectJump, true});
    log.branches.push_back(
        {0x3000, 0x6000, BranchKind::IndirectJump, true});
    BranchReconstructor recon(bp);
    recon.begin(log);
    const auto p = bp.predict(0x3000, BranchKind::IndirectJump);
    EXPECT_TRUE(p.targetValid);
    EXPECT_EQ(p.target, 0x6000u);
    recon.end();
}

TEST(BranchReconstructor, PhtExactWhenRunOfThreeExists)
{
    branch::GsharePredictor truth(smallBp()), rsr(smallBp());
    SkipLog log;
    log.ghrAtStart = 0;
    truth.setGhr(0);
    // Same static branch taken three times with untaken history bits
    // zeroed between (use non-conditional records to keep GHR still).
    const std::uint64_t pc = 0x4000;
    for (int i = 0; i < 3; ++i) {
        // Keep GHR constant by resetting truth's GHR after each update.
        truth.warmApply(pc, BranchKind::Conditional, true, pc + 32);
        truth.setGhr(0);
        log.branches.push_back({pc, pc + 32, BranchKind::Conditional, true});
    }
    // The log-based GHR evolves, so the reconstructor sees the same
    // branch under histories 0, 1, 11 — reconstruct the history-0 entry.
    BranchReconstructor recon(rsr);
    recon.begin(log);
    rsr.setGhr(0);
    recon.ensurePht(rsr.phtIndexWith(pc, 0));
    // Entry for (pc, ghr=0) saw exactly one outcome (the first logged),
    // newest outcome taken -> some taken-side value; direction must
    // match truth's.
    const auto idx = rsr.phtIndexWith(pc, 0);
    EXPECT_TRUE(branch::counter::taken(rsr.phtEntry(idx)));
    recon.end();
}

TEST(BranchReconstructor, ThreeConsecutiveSameHistoryPinsExactly)
{
    branch::GsharePredictor rsr(smallBp());
    SkipLog log;
    log.ghrAtStart = 0;
    const std::uint64_t pc = 0x4100;
    // Conditional not-taken outcomes keep GHR at 0 -> all three updates
    // hit the same entry; three in a row pins strongly-not-taken.
    for (int i = 0; i < 3; ++i)
        log.branches.push_back(
            {pc, pc + 4, BranchKind::Conditional, false});
    BranchReconstructor recon(rsr);
    recon.begin(log);
    recon.ensurePht(rsr.phtIndexWith(pc, 0));
    EXPECT_EQ(rsr.phtEntry(rsr.phtIndexWith(pc, 0)),
              branch::counter::stronglyNotTaken);
    EXPECT_EQ(recon.stats().phtReconstructed, 1u);
    recon.end();
}

TEST(BranchReconstructor, UnloggedEntryLeftStale)
{
    branch::GsharePredictor bp(smallBp());
    bp.setPhtEntry(5, branch::counter::stronglyTaken);
    SkipLog log;
    log.branches.push_back(
        {0x9000, 0x9100, BranchKind::Conditional, false});
    BranchReconstructor recon(bp);
    recon.begin(log);
    recon.ensurePht(5); // assume index 5 not touched by the log
    // Index of the logged branch under ghr 0:
    const auto logged_idx = bp.phtIndexWith(0x9000, 0);
    ASSERT_NE(logged_idx, 5u);
    EXPECT_EQ(bp.phtEntry(5), branch::counter::stronglyTaken);
    EXPECT_EQ(recon.stats().phtStale, 1u);
    recon.end();
}

TEST(BranchReconstructor, CursorSharedAcrossDemands)
{
    branch::GsharePredictor bp(smallBp());
    SkipLog log;
    // Two branches at distinct entries; demanding one reconstructs both
    // on the way (single backward pass).
    log.branches.push_back({0x100, 0x200, BranchKind::IndirectJump, true});
    log.branches.push_back({0x108, 0x300, BranchKind::IndirectJump, true});
    BranchReconstructor recon(bp);
    recon.begin(log);
    recon.ensureBtb(bp.btbIndex(0x100)); // scans whole log
    const auto scanned = recon.stats().recordsScanned;
    recon.ensureBtb(bp.btbIndex(0x108)); // already reconstructed
    EXPECT_EQ(recon.stats().recordsScanned, scanned);
    EXPECT_TRUE(bp.btbEntryValid(bp.btbIndex(0x108)));
    recon.end();
}

TEST(BranchReconstructor, PredictorHookTriggersReconstruction)
{
    branch::GsharePredictor bp(smallBp());
    SkipLog log;
    log.ghrAtStart = 0;
    for (int i = 0; i < 3; ++i)
        log.branches.push_back(
            {0x700, 0x704, BranchKind::Conditional, false});
    BranchReconstructor recon(bp);
    recon.begin(log);
    bp.setGhr(0);
    // predict() must reconstruct through the client hook on its own.
    const auto p = bp.predict(0x700, BranchKind::Conditional);
    EXPECT_FALSE(p.taken); // pinned strongly-not-taken
    EXPECT_GT(recon.stats().demands, 0u);
    recon.end();
}

TEST(BranchReconstructor, EndDetaches)
{
    branch::GsharePredictor bp(smallBp());
    SkipLog log;
    BranchReconstructor recon(bp);
    recon.begin(log);
    recon.end();
    const auto before = recon.stats().demands;
    bp.predict(0x100, BranchKind::Conditional);
    EXPECT_EQ(recon.stats().demands, before);
}

} // namespace
} // namespace rsr::core
