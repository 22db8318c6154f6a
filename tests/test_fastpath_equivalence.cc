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
 *   3. golden end-to-end counters for all 16 Table-2 policies, captured
 *      from the pre-optimization implementation of this simulator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "core/cache_reconstructor.hh"
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

    auto policies = core::makeTable2Policies();
    ASSERT_EQ(policies.size(), std::size(golden));
    for (std::size_t i = 0; i < policies.size(); ++i) {
        const auto r = core::runSampled(prog, *policies[i], cfg);
        const GoldenRow &g = golden[i];
        ASSERT_EQ(policies[i]->name(), g.name);
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

} // namespace
