/**
 * @file
 * Equivalence proofs for the hot-path optimizations: the flat-array
 * cache fast path, the pre-decoded instruction cache, and the
 * early-exit reverse reconstruction scan must be *bit-identical* in
 * every observable counter to the straightforward reference
 * formulations they replaced.
 *
 * Three layers of evidence:
 *   1. randomized model checking against naive reference models written
 *      independently of the optimized data layout;
 *   2. an exhaustive full-scan reference for the reverse reconstructor,
 *      compared on state snapshots and statistics;
 *   3. golden end-to-end counters for all 16 Table-2 policies, and
 *      golden timing-core counters over a table of core parameters,
 *      captured from the pre-optimization implementations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "core/cache_reconstructor.hh"
#include "core/livepoint_store.hh"
#include "core/sampled_sim.hh"
#include "core/skip_log.hh"
#include "core/warmup.hh"
#include "func/funcsim.hh"
#include "isa/inst.hh"
#include "util/snapshot.hh"
#include "workload/synthetic.hh"

namespace
{

using namespace rsr;

// ==========================================================================
// 1. Reference cache model: per-set blocks with an explicit recency list,
//    written for clarity with no flat arrays, masks, or inlining.
// ==========================================================================

class ReferenceCache
{
  public:
    explicit ReferenceCache(const cache::CacheParams &p) : params(p)
    {
        numSets = static_cast<unsigned>(
            p.sizeBytes / (p.lineBytes * p.assoc));
        sets.resize(numSets);
        for (auto &s : sets) {
            s.ways.resize(p.assoc);
            for (unsigned w = 0; w < p.assoc; ++w)
                s.recency.push_back(w);
        }
    }

    cache::AccessOutcome
    access(std::uint64_t addr, bool is_store)
    {
        cache::AccessOutcome out;
        Set &s = sets[setOf(addr)];
        const std::uint64_t tag = tagOf(addr);
        const bool wb = params.writePolicy ==
                        cache::WritePolicy::WriteBackAllocate;
        for (unsigned w = 0; w < params.assoc; ++w) {
            if (s.ways[w].valid && s.ways[w].tag == tag) {
                ++stats.hits;
                out.hit = true;
                touch(s, w);
                if (is_store && wb)
                    s.ways[w].dirty = true;
                return out;
            }
        }
        ++stats.misses;
        if (is_store && !wb)
            return out;
        const unsigned victim = s.recency.back();
        if (s.ways[victim].valid && s.ways[victim].dirty) {
            out.victimDirty = true;
            out.victimLineAddr =
                (s.ways[victim].tag * numSets + setOf(addr)) *
                params.lineBytes;
            ++stats.writebacks;
        }
        s.ways[victim] = {tag, true, is_store && wb, false};
        touch(s, victim);
        ++stats.fills;
        out.allocated = true;
        return out;
    }

    void
    beginReconstruction()
    {
        for (auto &s : sets) {
            for (auto &b : s.ways)
                b.recon = false;
            s.reconCount = 0;
        }
    }

    bool
    reconstructRef(std::uint64_t addr)
    {
        Set &s = sets[setOf(addr)];
        if (s.reconCount >= params.assoc) {
            ++stats.reconIgnored;
            return false;
        }
        const std::uint64_t tag = tagOf(addr);
        int way = -1;
        for (unsigned w = 0; w < params.assoc; ++w)
            if (s.ways[w].valid && s.ways[w].tag == tag)
                way = static_cast<int>(w);
        if (way >= 0 && s.ways[way].recon) {
            ++stats.reconIgnored;
            return false;
        }
        if (way < 0) {
            way = static_cast<int>(s.recency.back());
            s.ways[way] = {tag, true, false, false};
            ++stats.fills;
        }
        s.ways[way].recon = true;
        // Ascending LRU ranks in scan order: the k-th reconstructed
        // block of a set lands at recency position k.
        s.recency.erase(std::find(s.recency.begin(), s.recency.end(),
                                  static_cast<unsigned>(way)));
        s.recency.insert(s.recency.begin() + s.reconCount,
                         static_cast<unsigned>(way));
        ++s.reconCount;
        ++stats.reconApplied;
        return true;
    }

    bool
    probe(std::uint64_t addr) const
    {
        const Set &s = sets[setOf(addr)];
        const std::uint64_t tag = tagOf(addr);
        for (unsigned w = 0; w < params.assoc; ++w)
            if (s.ways[w].valid && s.ways[w].tag == tag)
                return true;
        return false;
    }

    int
    recencyOf(std::uint64_t addr) const
    {
        const Set &s = sets[setOf(addr)];
        const std::uint64_t tag = tagOf(addr);
        for (unsigned pos = 0; pos < params.assoc; ++pos) {
            const auto &b = s.ways[s.recency[pos]];
            if (b.valid && b.tag == tag)
                return static_cast<int>(pos);
        }
        return -1;
    }

    cache::CacheStats stats;

  private:
    struct Block
    {
        std::uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        bool recon = false;
    };
    struct Set
    {
        std::vector<Block> ways;
        std::vector<unsigned> recency; ///< way indices, MRU first
        unsigned reconCount = 0;
    };

    std::uint64_t setOf(std::uint64_t addr) const
    {
        return (addr / params.lineBytes) % numSets;
    }
    std::uint64_t tagOf(std::uint64_t addr) const
    {
        return addr / params.lineBytes / numSets;
    }
    void
    touch(Set &s, unsigned way)
    {
        s.recency.erase(
            std::find(s.recency.begin(), s.recency.end(), way));
        s.recency.insert(s.recency.begin(), way);
    }

    cache::CacheParams params;
    unsigned numSets;
    std::vector<Set> sets;
};

void
expectStatsEqual(const cache::CacheStats &a, const cache::CacheStats &b)
{
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.fills, b.fills);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.reconApplied, b.reconApplied);
    EXPECT_EQ(a.reconIgnored, b.reconIgnored);
}

class FastpathCacheEquivalence
    : public ::testing::TestWithParam<cache::CacheParams>
{};

TEST_P(FastpathCacheEquivalence, RandomStreamWithReconstructionPhases)
{
    const cache::CacheParams p = GetParam();
    cache::Cache fast(p);
    ReferenceCache ref(p);
    std::mt19937_64 rng(0xfa57'0001);

    // A footprint a few times the cache size forces evictions; aligning
    // to odd strides exercises every set.
    const std::uint64_t footprint = p.sizeBytes * 4;
    std::vector<std::uint64_t> logged;
    for (unsigned round = 0; round < 4; ++round) {
        for (unsigned i = 0; i < 20'000; ++i) {
            const std::uint64_t addr = (rng() % footprint) & ~7ull;
            const bool is_store = (rng() & 3) == 0;
            const auto of = fast.access(addr, is_store);
            const auto orf = ref.access(addr, is_store);
            ASSERT_EQ(of.hit, orf.hit);
            ASSERT_EQ(of.allocated, orf.allocated);
            ASSERT_EQ(of.victimDirty, orf.victimDirty);
            if (of.victimDirty) {
                ASSERT_EQ(of.victimLineAddr, orf.victimLineAddr);
            }
            logged.push_back(addr);
        }
        // Reverse-reconstruction phase over the newest slice, exactly as
        // the RSR scan consumes the skip log.
        fast.beginReconstruction();
        ref.beginReconstruction();
        for (std::size_t i = logged.size(); i-- > logged.size() - 5'000;)
            ASSERT_EQ(fast.reconstructRef(logged[i]),
                      ref.reconstructRef(logged[i]));
        // Spot-check presence and recency agreement across the footprint.
        for (std::uint64_t a = 0; a < footprint;
             a += p.lineBytes * 7 + 8) {
            ASSERT_EQ(fast.probe(a), ref.probe(a));
            ASSERT_EQ(fast.recencyOf(a), ref.recencyOf(a));
        }
    }
    expectStatsEqual(fast.stats(), ref.stats);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, FastpathCacheEquivalence,
    ::testing::Values(
        cache::CacheParams{"l1d", 32 * 1024, 4, 64,
                           cache::WritePolicy::WriteThroughNoAllocate, 1},
        cache::CacheParams{"l2", 256 * 1024, 8, 64,
                           cache::WritePolicy::WriteBackAllocate, 12},
        cache::CacheParams{"small", 8 * 1024, 2, 32,
                           cache::WritePolicy::WriteBackAllocate, 1},
        cache::CacheParams{"direct", 4 * 1024, 1, 64,
                           cache::WritePolicy::WriteThroughNoAllocate,
                           1}),
    [](const auto &info) { return info.param.name; });

// ==========================================================================
// 2. Early-exit reverse scan vs an exhaustive full-scan reference.
// ==========================================================================

/** The pre-optimization reverse scan: every logged reference in the
 *  window is applied, newest first, with no early exit. */
core::CacheReconstructionResult
referenceReconstruct(cache::MemoryHierarchy &hier,
                     const core::MemLog &log, double fraction)
{
    core::CacheReconstructionResult res;
    hier.il1().beginReconstruction();
    hier.dl1().beginReconstruction();
    hier.l2().beginReconstruction();
    const std::size_t n = log.size();
    const auto take = static_cast<std::size_t>(
        std::llround(static_cast<double>(n) * fraction));
    for (std::size_t i = n; i-- > n - take;) {
        cache::Cache &l1 =
            log.isInstr(i) ? hier.il1() : hier.dl1();
        const bool a1 = l1.reconstructRef(log.addr(i));
        const bool a2 = hier.l2().reconstructRef(log.addr(i));
        ++res.refsScanned;
        res.updatesApplied += (a1 ? 1 : 0) + (a2 ? 1 : 0);
        if (!a1 && !a2)
            ++res.refsIgnored;
    }
    return res;
}

TEST(FastpathReconstructEquivalence, EarlyExitMatchesFullScan)
{
    std::mt19937_64 rng(0xfa57'0002);
    for (const double fraction : {0.2, 0.5, 1.0}) {
        cache::MemoryHierarchy fast(
            cache::HierarchyParams::paperDefault());
        cache::MemoryHierarchy ref(
            cache::HierarchyParams::paperDefault());

        // Warm both hierarchies identically so reconstruction starts
        // from non-trivial stale state, then build a skip log with the
        // access pattern RSR records: I-line touches and data refs with
        // heavy reuse (reuse is what makes the early exit fire).
        core::MemLog log;
        for (unsigned i = 0; i < 60'000; ++i) {
            const bool is_instr = (rng() & 7) == 0;
            const std::uint64_t addr =
                is_instr ? 0x400000 + (rng() % 0x8000 & ~3ull)
                         : 0x10000000 + (rng() % 0x40000 & ~7ull);
            const bool is_store = !is_instr && (rng() & 3) == 0;
            fast.warmAccess(addr, is_store, is_instr);
            ref.warmAccess(addr, is_store, is_instr);
            log.append(0x400000 + i * 4, addr, is_instr, is_store);
        }

        const auto rf = core::reconstructCaches(fast, log, fraction);
        const auto rr = referenceReconstruct(ref, log, fraction);
        EXPECT_EQ(rf.refsScanned, rr.refsScanned) << fraction;
        EXPECT_EQ(rf.updatesApplied, rr.updatesApplied) << fraction;
        EXPECT_EQ(rf.refsIgnored, rr.refsIgnored) << fraction;
        expectStatsEqual(fast.il1().stats(), ref.il1().stats());
        expectStatsEqual(fast.dl1().stats(), ref.dl1().stats());
        expectStatsEqual(fast.l2().stats(), ref.l2().stats());
        // Full state equality: tags, flags, recency, recon counts.
        EXPECT_EQ(snapshotToBytes(fast), snapshotToBytes(ref));
    }
}

// ==========================================================================
// 3. Pre-decoded instruction cache vs decoding from the memory image.
// ==========================================================================

TEST(FastpathDecodeEquivalence, PredecodedMatchesMemoryImageDecode)
{
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("gcc"));
    func::FuncSim fs(prog);
    func::DynInst d;
    for (unsigned i = 0; i < 200'000; ++i) {
        const std::uint64_t pc = fs.pc();
        if (!fs.step(&d)) {
            fs.reset();
            continue;
        }
        ASSERT_EQ(d.pc, pc);
        const isa::Inst redecoded =
            isa::decode(fs.memory().readWord(pc));
        EXPECT_EQ(isa::encode(d.inst), isa::encode(redecoded));
    }
}

// ==========================================================================
// 4. Golden end-to-end counters for all 16 Table-2 policies (twolf, 400k
//    insts, 10x2000 regimen, scaled machine), captured from the deferred
//    estimator — the cluster's own instructions warm the shared machine
//    in commit order, which moves the predictor-reconstructing rows from
//    the retired inline loop's values. Any hot-path change that shifts a
//    single cycle, misprediction, warm update, logged record, or
//    cluster-IPC bit fails here.
// ==========================================================================

std::uint64_t
fnv1a(const void *data, std::size_t n,
      std::uint64_t h = 0xcbf29ce484222325ull)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

struct GoldenRow
{
    const char *name;
    std::uint64_t hotCycles;
    std::uint64_t branchMispredicts;
    std::uint64_t functionalUpdates;
    std::uint64_t reconstructionUpdates;
    std::uint64_t loggedRecords;
    std::uint64_t ipcHash;
};

TEST(FastpathGolden, AllTable2PoliciesBitIdentical)
{
    static const GoldenRow golden[] = {
        {"None", 110170u, 781u, 0u, 0u, 0u, 0x5d40e060a3ac8f02ull},
        {"FP (20%)", 55944u, 687u, 24833u, 0u, 0u,
         0x6f5b67003b78ee4full},
        {"FP (40%)", 51298u, 668u, 49686u, 0u, 0u,
         0x10a2c65735fb5079ull},
        {"FP (80%)", 36884u, 649u, 98883u, 0u, 0u,
         0xdce42c7112e77e86ull},
        {"S$", 39303u, 800u, 99570u, 0u, 0u, 0xd68c140fec2f8705ull},
        {"SBP", 104736u, 642u, 24025u, 0u, 0u, 0x54580252b0820a3dull},
        {"S$BP", 35534u, 643u, 123595u, 0u, 0u, 0x644328d6bd80884bull},
        {"R$ (20%)", 58903u, 800u, 0u, 5798u, 68128u,
         0x4031ebf1dc77a085ull},
        {"R$ (40%)", 53910u, 805u, 0u, 7671u, 68128u,
         0xfc7254e221e5dd55ull},
        {"R$ (80%)", 40383u, 801u, 0u, 9624u, 68128u,
         0xb4763e3029602294ull},
        {"R$ (100%)", 39547u, 800u, 0u, 10303u, 68128u,
         0xc0679f4acccf5785ull},
        {"RBP", 108153u, 709u, 0u, 3863u, 24025u,
         0x7067bf85e9e61a01ull},
        {"R$BP (20%)", 56714u, 690u, 0u, 9621u, 92153u,
         0x43f36ae4519a15a4ull},
        {"R$BP (40%)", 51994u, 706u, 0u, 11471u, 92153u,
         0x10591888fdc013d5ull},
        {"R$BP (80%)", 38253u, 720u, 0u, 13422u, 92153u,
         0xe08d0aa64508fc19ull},
        {"R$BP (100%)", 37451u, 720u, 0u, 14101u, 92153u,
         0x59881796eff23789ull},
    };

    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("twolf"));
    core::SampledConfig cfg;
    cfg.totalInsts = 400'000;
    cfg.regimen = {10, 2000};
    cfg.machine = core::MachineConfig::scaledDefault();

    const auto &names = core::table2PolicyNames();
    ASSERT_EQ(names.size(), std::size(golden));
    for (std::size_t i = 0; i < names.size(); ++i) {
        const auto policy = core::makePolicyByName(names[i]);
        const auto r = core::runSampled(prog, *policy, cfg);
        const GoldenRow &g = golden[i];
        ASSERT_EQ(policy->name(), g.name);
        EXPECT_EQ(r.hotCycles, g.hotCycles) << g.name;
        EXPECT_EQ(r.branchMispredicts, g.branchMispredicts) << g.name;
        EXPECT_EQ(r.warmWork.functionalUpdates, g.functionalUpdates)
            << g.name;
        EXPECT_EQ(r.warmWork.reconstructionUpdates,
                  g.reconstructionUpdates)
            << g.name;
        EXPECT_EQ(r.warmWork.loggedRecords, g.loggedRecords) << g.name;
        std::uint64_t ipc_hash = 0xcbf29ce484222325ull;
        for (const double v : r.clusterIpc)
            ipc_hash = fnv1a(&v, sizeof(v), ipc_hash);
        EXPECT_EQ(ipc_hash, g.ipcHash) << g.name;
    }
}

// Golden rows, on the Table-2 config above, for the policies outside
// Table 2 that ride its two mechanisms: the reuse-latency baselines
// (functional warming over a profiled tail) and RSR's apply-to-stale
// extension. Recorded before MRRL/BLRL were folded into FunctionalWarmup.
TEST(FastpathGolden, ProfiledAndStalePoliciesBitIdentical)
{
    static const GoldenRow golden[] = {
        {"mrrl", 47549u, 668u, 44619u, 0u, 0u, 0xfe92f34b9c7fe5e0ull},
        {"blrl", 35626u, 648u, 84186u, 0u, 0u, 0xabf2cce458f07606ull},
        {"rsr20+stale", 56109u, 677u, 0u, 9643u, 92153u,
         0x33c9ae29fad3ef98ull},
    };

    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("twolf"));
    core::SampledConfig cfg;
    cfg.totalInsts = 400'000;
    cfg.regimen = {10, 2000};
    cfg.machine = core::MachineConfig::scaledDefault();

    for (const GoldenRow &g : golden) {
        const auto policy = core::makePolicyByName(g.name);
        const auto r = core::runSampled(prog, *policy, cfg);
        std::uint64_t ipc_hash = 0xcbf29ce484222325ull;
        for (const double v : r.clusterIpc)
            ipc_hash = fnv1a(&v, sizeof(v), ipc_hash);
        EXPECT_EQ(r.hotCycles, g.hotCycles) << g.name;
        EXPECT_EQ(r.branchMispredicts, g.branchMispredicts) << g.name;
        EXPECT_EQ(r.warmWork.functionalUpdates, g.functionalUpdates)
            << g.name;
        EXPECT_EQ(r.warmWork.reconstructionUpdates,
                  g.reconstructionUpdates)
            << g.name;
        EXPECT_EQ(r.warmWork.loggedRecords, g.loggedRecords) << g.name;
        EXPECT_EQ(ipc_hash, g.ipcHash) << g.name;
    }
}

// ==========================================================================
// 5. Golden timing-core counters: captured clusters of gcc/rsr40 (which
//    carry RSR's on-demand branch context) and mcf/smarts replayed
//    through core::replayCluster under a table of core parameters that
//    stress different parts of OoOCore::run: a ROB size that is not a
//    power of two, a one-wide issue stage, zero-latency producers,
//    forwarding with no forward delay, a single branch checkpoint, a
//    tiny fetch buffer. The values were recorded from the core that
//    re-scanned every waiting IQ entry each cycle.
// ==========================================================================

/** 4 captured clusters of @p workload under @p policy on @p machine. */
core::LivePointStore
captureFour(const std::string &workload, const std::string &policy,
            const core::MachineConfig &machine)
{
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams(workload));
    core::SampledConfig cfg;
    cfg.totalInsts = 200'000;
    cfg.regimen = {4, 2000};
    cfg.machine = machine;
    auto warmup = core::makePolicyByName(policy);
    return core::LivePointStore::create(prog, *warmup, cfg, workload,
                                        policy);
}

/** Field-wise sum of @p a and @p b. */
uarch::RunResult
addResults(uarch::RunResult a, const uarch::RunResult &b)
{
    a.insts += b.insts;
    a.cycles += b.cycles;
    a.branchMispredicts += b.branchMispredicts;
    a.condBranches += b.condBranches;
    a.loads += b.loads;
    a.stores += b.stores;
    a.forwardedLoads += b.forwardedLoads;
    a.dispatchStallCycles += b.dispatchStallCycles;
    a.fetchBlockedCycles += b.fetchBlockedCycles;
    return a;
}

/** FNV-1a over all nine RunResult fields of @p r, chained on @p h. */
std::uint64_t
hashResult(const uarch::RunResult &r, std::uint64_t h)
{
    const std::uint64_t fields[] = {
        r.insts,         r.cycles,         r.branchMispredicts,
        r.condBranches,  r.loads,          r.stores,
        r.forwardedLoads, r.dispatchStallCycles, r.fetchBlockedCycles};
    return fnv1a(fields, sizeof(fields), h);
}

struct CoreGoldenRow
{
    const char *name;
    bool paperMachine;
    void (*tweak)(uarch::CoreParams &);
    /** Sums over the 8 clusters of all nine RunResult fields. */
    uarch::RunResult sum;
    /** hashResult() chained over the clusters in capture order. */
    std::uint64_t clusterHash;
};

TEST(OoOCore, GoldenCountersAcrossCoreParams)
{
    static const CoreGoldenRow golden[] = {
        {"scaled default", false, [](uarch::CoreParams &) {},
         {16000, 245773, 541, 1102, 2622, 223, 0, 165456, 145486},
         0x16ae5b10bbb97d83ull},
        {"rob 48, iq 8", false,
         [](uarch::CoreParams &c) {
             c.robSize = 48;
             c.iqSize = 8;
         },
         {16000, 249076, 533, 1102, 2622, 223, 0, 173982, 145946},
         0x870091dc8bcbbd02ull},
        {"issue 1, 2 FUs", false,
         [](uarch::CoreParams &c) {
             c.issueWidth = 1;
             c.numFUs = 2;
         },
         {16000, 246844, 541, 1102, 2622, 223, 0, 165066, 146977},
         0xb1009188ee665913ull},
        {"forwarding, 0-cycle", false,
         [](uarch::CoreParams &c) {
             c.storeForwarding = true;
             c.forwardLatency = 0;
         },
         {16000, 245773, 541, 1102, 2622, 223, 5, 165456, 145486},
         0x48b964df7b291a1aull},
        {"0-cycle int ALU", false,
         [](uarch::CoreParams &c) { c.intAluLat = 0; },
         {16000, 244927, 538, 1102, 2622, 223, 0, 166010, 144285},
         0xdf27afd5fc53c905ull},
        {"1 unresolved branch", false,
         [](uarch::CoreParams &c) { c.maxUnresolvedBranches = 1; },
         {16000, 252007, 541, 1102, 2622, 223, 0, 176842, 149362},
         0x5bd34fd803f030a4ull},
        {"fetch buffer 3, no frontend delay", false,
         [](uarch::CoreParams &c) {
             c.fetchBufferSize = 3;
             c.frontendDelay = 0;
         },
         {16000, 244843, 532, 1102, 2622, 223, 0, 165018, 82999},
         0x961da8aa2672f005ull},
        {"paper machine", true, [](uarch::CoreParams &) {},
         {16000, 244227, 741, 1102, 2622, 223, 0, 178672, 154429},
         0x440bdd2c19a50f04ull},
        // The corners of the perfbench design_sweep grid, recorded from
        // the core whose idle-cycle search scanned the whole ROB.
        {"rob 32, issue 2", false,
         [](uarch::CoreParams &c) {
             c.robSize = 32;
             c.issueWidth = 2;
         },
         {16000, 257902, 543, 1102, 2622, 223, 0, 183858, 153116},
         0x7108902c44321265ull},
        {"rob 128, issue 8", false,
         [](uarch::CoreParams &c) {
             c.robSize = 128;
             c.issueWidth = 8;
         },
         {16000, 239945, 527, 1102, 2622, 223, 0, 155517, 138397},
         0xc6cf9c31c853d0f2ull},
        {"paper machine, rob 128", true,
         [](uarch::CoreParams &c) { c.robSize = 128; },
         {16000, 238606, 735, 1102, 2622, 223, 0, 167631, 147535},
         0xcc7076d574b9e788ull},
    };

    const core::MachineConfig bases[] = {
        core::MachineConfig::scaledDefault(),
        core::MachineConfig::paperDefault()};
    std::vector<core::LivePointStore> stores[2];
    for (int paper = 0; paper < 2; ++paper) {
        stores[paper].push_back(
            captureFour("gcc", "rsr40", bases[paper]));
        stores[paper].push_back(
            captureFour("mcf", "smarts", bases[paper]));
        for (const auto &e : stores[paper][0].entries())
            ASSERT_TRUE(e.hasContext);
    }

    for (const CoreGoldenRow &g : golden) {
        core::MachineConfig machine = bases[g.paperMachine ? 1 : 0];
        g.tweak(machine.core);
        core::ReplayArena arena;
        uarch::RunResult sum;
        std::uint64_t hash = 0xcbf29ce484222325ull;
        for (const auto &store : stores[g.paperMachine ? 1 : 0]) {
            ASSERT_EQ(store.clusterCount(), 4u);
            for (std::size_t i = 0; i < store.clusterCount(); ++i) {
                auto task = store.makeReplayTask(i);
                const auto r = core::replayCluster(task, machine, arena);
                sum = addResults(sum, r);
                hash = hashResult(r, hash);
            }
        }
        EXPECT_EQ(sum.insts, g.sum.insts) << g.name;
        EXPECT_EQ(sum.cycles, g.sum.cycles) << g.name;
        EXPECT_EQ(sum.branchMispredicts, g.sum.branchMispredicts) << g.name;
        EXPECT_EQ(sum.condBranches, g.sum.condBranches) << g.name;
        EXPECT_EQ(sum.loads, g.sum.loads) << g.name;
        EXPECT_EQ(sum.stores, g.sum.stores) << g.name;
        EXPECT_EQ(sum.forwardedLoads, g.sum.forwardedLoads) << g.name;
        EXPECT_EQ(sum.dispatchStallCycles, g.sum.dispatchStallCycles)
            << g.name;
        EXPECT_EQ(sum.fetchBlockedCycles, g.sum.fetchBlockedCycles)
            << g.name;
        EXPECT_EQ(hash, g.clusterHash) << g.name;
    }
}

TEST(OoOCore, HugeQueueSizesMatchUnboundedRun)
{
    // The core allocates by occupancy, not by the configured sizes: ROB,
    // IQ, LSQ and checkpoint limits of 4e9 run, and time exactly like
    // limits no trace of this length can reach.
    const auto store = captureFour("gcc", "rsr40",
                                   core::MachineConfig::scaledDefault());
    const std::size_t len = store.makeReplayTask(0).trace.size();
    const auto withLimits = [](std::uint64_t n) {
        auto m = core::MachineConfig::scaledDefault();
        const auto limit = static_cast<unsigned>(n);
        m.core.robSize = limit;
        m.core.iqSize = limit;
        m.core.lsqSize = limit;
        m.core.maxUnresolvedBranches = limit;
        return m;
    };
    const auto huge = withLimits(4'000'000'000ull);
    const auto bounded = withLimits(len);
    core::ReplayArena arena;
    for (std::size_t i = 0; i < store.clusterCount(); ++i) {
        auto a = store.makeReplayTask(i);
        auto b = store.makeReplayTask(i);
        const auto r_huge = core::replayCluster(a, huge, arena);
        const auto r_bounded = core::replayCluster(b, bounded, arena);
        EXPECT_EQ(r_huge.insts, len) << i;
        EXPECT_EQ(hashResult(r_huge, 0), hashResult(r_bounded, 0)) << i;
        EXPECT_EQ(r_huge.cycles, r_bounded.cycles) << i;
    }
}

} // namespace
