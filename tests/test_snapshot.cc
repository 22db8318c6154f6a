/**
 * @file
 * Tests for the versioned, checksummed component snapshot layer: framed
 * round trips for every Snapshotable (Cache, MemoryHierarchy,
 * GsharePredictor, Machine) and the corrupt-input negative paths
 * (truncation, bit flips, component mismatch, version and geometry
 * mismatches, trailing bytes).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>

#include "branch/predictor.hh"
#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "core/machine.hh"
#include "core/warmup.hh"
#include "util/random.hh"
#include "util/snapshot.hh"

namespace rsr::core
{
namespace
{

cache::CacheParams
smallCacheParams()
{
    cache::CacheParams p;
    p.name = "test";
    p.sizeBytes = 64 * 4 * 16;
    p.assoc = 4;
    p.lineBytes = 64;
    p.writePolicy = cache::WritePolicy::WriteBackAllocate;
    return p;
}

branch::PredictorParams
smallPredictorParams()
{
    branch::PredictorParams pp;
    pp.phtEntries = 256;
    pp.historyBits = 8;
    pp.btbEntries = 16;
    pp.rasEntries = 4;
    return pp;
}

void
churnMachine(Machine &m, unsigned seed)
{
    Rng rng(seed);
    for (int i = 0; i < 4000; ++i) {
        const std::uint64_t addr = rng.below(1 << 16);
        m.hier.warmAccess(addr, rng.chance(0.3), rng.chance(0.2));
        if (rng.chance(0.25)) {
            const std::uint64_t pc = 0x1000 + 4 * rng.below(512);
            m.bp.warmApply(pc, isa::BranchKind::Conditional,
                           rng.chance(0.6), pc + 32);
        }
    }
}

TEST(Snapshot, FourccRoundTrip)
{
    constexpr std::uint32_t tag = fourcc('M', 'A', 'C', 'H');
    EXPECT_EQ(fourccName(tag), "MACH");
}

TEST(Snapshot, CacheRoundTripIsExact)
{
    cache::Cache a(smallCacheParams()), b(smallCacheParams());
    Rng rng(11);
    for (int i = 0; i < 2000; ++i)
        a.access(rng.below(512) * 64, rng.chance(0.4));

    const auto bytes = snapshotToBytes(a);
    restoreFromBytes(b, bytes);
    // A restored component must re-snapshot to the identical bytes.
    EXPECT_EQ(snapshotToBytes(b), bytes);
    for (std::uint64_t line = 0; line < 512; ++line)
        ASSERT_EQ(a.probe(line * 64), b.probe(line * 64)) << line;
}

TEST(Snapshot, PredictorRoundTripIsExact)
{
    branch::GsharePredictor a(smallPredictorParams()),
        b(smallPredictorParams());
    Rng rng(12);
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t pc = 0x4000 + 4 * rng.below(1024);
        a.warmApply(pc, isa::BranchKind::Conditional, rng.chance(0.7),
                    pc + 64);
    }
    a.rasPush(0xabc);

    const auto bytes = snapshotToBytes(a);
    restoreFromBytes(b, bytes);
    EXPECT_EQ(snapshotToBytes(b), bytes);
    EXPECT_EQ(a.ghr(), b.ghr());
    EXPECT_EQ(a.rasContents(), b.rasContents());
}

TEST(Snapshot, HierarchyAndMachineRoundTrip)
{
    const auto mc = MachineConfig::scaledDefault();
    Machine a(mc), b(mc);
    churnMachine(a, 13);

    const auto hier_bytes = snapshotToBytes(a.hier);
    restoreFromBytes(b.hier, hier_bytes);
    EXPECT_EQ(snapshotToBytes(b.hier), hier_bytes);

    const auto bytes = snapshotToBytes(a);
    Machine c(mc);
    restoreFromBytes(c, bytes);
    EXPECT_EQ(snapshotToBytes(c), bytes);
}

TEST(Snapshot, RestoreOverwritesDivergedState)
{
    const auto mc = MachineConfig::scaledDefault();
    Machine a(mc), b(mc);
    churnMachine(a, 14);
    churnMachine(b, 99); // b diverges first, then is restored over
    const auto bytes = snapshotToBytes(a);
    restoreFromBytes(b, bytes);
    EXPECT_EQ(snapshotToBytes(b), bytes);
}

TEST(Snapshot, TruncatedSnapshotThrowsCorrupt)
{
    const auto mc = MachineConfig::scaledDefault();
    Machine a(mc);
    churnMachine(a, 15);
    auto bytes = snapshotToBytes(a);
    bytes.resize(bytes.size() / 2);
    Machine b(mc);
    EXPECT_THROW(restoreFromBytes(b, bytes), CorruptInputError);
}

TEST(Snapshot, FlippedPayloadByteThrowsCorrupt)
{
    cache::Cache a(smallCacheParams()), b(smallCacheParams());
    Rng rng(16);
    for (int i = 0; i < 500; ++i)
        a.access(rng.below(256) * 64, false);
    auto bytes = snapshotToBytes(a);
    bytes[bytes.size() / 2] ^= 0x40;
    EXPECT_THROW(restoreFromBytes(b, bytes), CorruptInputError);
}

TEST(Snapshot, ComponentMismatchThrowsCorrupt)
{
    cache::Cache c(smallCacheParams());
    branch::GsharePredictor p(smallPredictorParams());
    // A cache frame fed to a predictor must fail on the tag, not
    // misparse.
    EXPECT_THROW(restoreFromBytes(p, snapshotToBytes(c)),
                 CorruptInputError);
}

TEST(Snapshot, UnsupportedVersionThrowsCorrupt)
{
    cache::Cache a(smallCacheParams()), b(smallCacheParams());
    auto bytes = snapshotToBytes(a);
    // Frame header layout: tag (4), then version (4); the checksum only
    // covers the payload, so this exercises the version check itself.
    bytes[4] = 0x7f;
    EXPECT_THROW(restoreFromBytes(b, bytes), CorruptInputError);
}

TEST(Snapshot, GeometryMismatchThrowsCorrupt)
{
    cache::Cache a(smallCacheParams());
    auto other = smallCacheParams();
    other.assoc = 2;
    cache::Cache b(other);
    EXPECT_THROW(restoreFromBytes(b, snapshotToBytes(a)),
                 CorruptInputError);
}

/**
 * Swap the first pair of adjacent differing 8-byte words in a frame's
 * payload — the byte-level image of a snapshot()/restore() member-order
 * mismatch. Returns false if every adjacent pair is identical.
 */
bool
swapAdjacentPayloadWords(std::vector<std::uint8_t> &bytes,
                         std::size_t payload_start)
{
    for (std::size_t off = payload_start; off + 16 <= bytes.size();
         off += 8) {
        const auto word = bytes.begin() + static_cast<std::ptrdiff_t>(off);
        if (std::equal(word, word + 8, word + 8))
            continue;
        std::swap_ranges(word, word + 8, word + 8);
        return true;
    }
    return false;
}

TEST(Snapshot, ReorderedCachePayloadWordsThrowCorrupt)
{
    cache::Cache a(smallCacheParams()), b(smallCacheParams());
    Rng rng(17);
    for (int i = 0; i < 2000; ++i)
        a.access(rng.below(512) * 64, rng.chance(0.4));
    auto bytes = snapshotToBytes(a);
    // Frame header is 24 bytes (tag, version, length, checksum); the
    // member stream follows. The FNV payload checksum is position-
    // sensitive, so reordered members cannot restore silently — the
    // runtime complement of rsrlint's snap-asymmetry order check.
    ASSERT_TRUE(swapAdjacentPayloadWords(bytes, 24));
    EXPECT_THROW(restoreFromBytes(b, bytes), CorruptInputError);
}

TEST(Snapshot, ReorderedPredictorPayloadWordsThrowCorrupt)
{
    branch::GsharePredictor a(smallPredictorParams()),
        b(smallPredictorParams());
    Rng rng(18);
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t pc = 0x4000 + 4 * rng.below(1024);
        a.warmApply(pc, isa::BranchKind::Conditional, rng.chance(0.6),
                    pc + 64);
    }
    auto bytes = snapshotToBytes(a);
    ASSERT_TRUE(swapAdjacentPayloadWords(bytes, 24));
    EXPECT_THROW(restoreFromBytes(b, bytes), CorruptInputError);
}

TEST(Snapshot, TrailingBytesThrowCorrupt)
{
    cache::Cache a(smallCacheParams()), b(smallCacheParams());
    auto bytes = snapshotToBytes(a);
    bytes.push_back(0);
    EXPECT_THROW(restoreFromBytes(b, bytes), CorruptInputError);
}

// ---------------------------------------------------------------------------
// The RSR measure context's frame (RSRC). A store's content hash catches
// damage before restoreMeasureContext runs, so its own checks are
// exercised here on hand-built frames.
// ---------------------------------------------------------------------------

/** Serialize @p ctx as restoreMeasureContext() reads it. */
std::vector<std::uint8_t>
contextBytes(const MeasureContext &ctx)
{
    ByteSink sink;
    Serializer out(sink);
    ctx.snapshot(out);
    return sink.take();
}

std::unique_ptr<MeasureContext>
restoreContext(const std::vector<std::uint8_t> &bytes)
{
    ByteSource src(bytes);
    Deserializer in(src);
    return restoreMeasureContext(in);
}

/**
 * An RSRC frame holding one branch record, built field by field; its
 * record count field says @p count.
 */
std::vector<std::uint8_t>
handBuiltContextFrame(std::uint32_t version, std::uint8_t pht_mode,
                      std::uint8_t branch_kind, std::uint64_t count = 1)
{
    ByteSink sink;
    Serializer out(sink);
    out.begin(fourcc('R', 'S', 'R', 'C'), version);
    out.putU8(pht_mode);
    out.putU32(0x2a5); // GHR at the start of the skip region
    out.putU64(count);
    out.putU64(0x10000);
    out.putU64(0x10040);
    out.putU8(branch_kind);
    out.putU8(1); // taken
    out.end();
    return sink.take();
}

constexpr auto lastKind =
    static_cast<std::uint8_t>(isa::BranchKind::IndirectJump);

TEST(MeasureContextFrame, SnapshotRestoreSnapshotIsByteIdentical)
{
    SkipLog log;
    log.ghrAtStart = 0x1234;
    log.branches = {{0x4000, 0x4100, isa::BranchKind::Conditional, true},
                    {0x4100, 0x4104, isa::BranchKind::Conditional, false},
                    {0x4104, 0x8000, isa::BranchKind::Call, true},
                    {0x8010, 0x4108, isa::BranchKind::Return, true},
                    {0x4108, 0x9000, isa::BranchKind::IndirectJump, true}};
    const MeasureContext ctx(std::move(log), PhtResolveMode::ApplyToStale);
    const auto bytes = contextBytes(ctx);
    EXPECT_EQ(contextBytes(*restoreContext(bytes)), bytes);

    const auto hand = handBuiltContextFrame(1, 0, lastKind);
    EXPECT_EQ(contextBytes(*restoreContext(hand)), hand);
}

TEST(MeasureContextFrame, UnknownVersionThrowsCorrupt)
{
    EXPECT_THROW(restoreContext(handBuiltContextFrame(2, 0, lastKind)),
                 CorruptInputError);
}

TEST(MeasureContextFrame, UnknownPhtModeThrowsCorrupt)
{
    EXPECT_THROW(restoreContext(handBuiltContextFrame(1, 2, lastKind)),
                 CorruptInputError);
}

TEST(MeasureContextFrame, BranchKindPastIndirectJumpThrowsCorrupt)
{
    EXPECT_THROW(restoreContext(handBuiltContextFrame(
                     1, 0, static_cast<std::uint8_t>(lastKind + 1))),
                 CorruptInputError);
}

TEST(MeasureContextFrame, RecordCountBeyondPayloadThrowsCorrupt)
{
    // Refused before reserving: 2^40 records would be 24 TiB.
    const std::uint64_t counts[] = {2, std::uint64_t{1} << 40};
    for (const std::uint64_t count : counts)
        EXPECT_THROW(
            restoreContext(handBuiltContextFrame(1, 0, lastKind, count)),
            CorruptInputError)
            << count;
}

} // namespace
} // namespace rsr::core
