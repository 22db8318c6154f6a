/**
 * @file
 * Tests for the versioned component snapshot layer: framed round trips
 * for every Snapshotable (Cache, MemoryHierarchy, GsharePredictor,
 * Machine), each checked snapshot -> restore -> snapshot byte-identical;
 * the structural negative paths of a frame (truncation, component
 * mismatch, version and geometry mismatches, trailing bytes); and the
 * integrity rule that replaces per-frame checksums: a flipped byte in
 * any blob kind or the index of a live-point store is refused when the
 * store is opened.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>

#include "branch/predictor.hh"
#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "core/livepoint_store.hh"
#include "core/machine.hh"
#include "core/warmup.hh"
#include "util/content_store.hh"
#include "util/error.hh"
#include "util/random.hh"
#include "util/snapshot.hh"
#include "workload/synthetic.hh"

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

TEST(Snapshot, NestedFramesAreWrittenInPlace)
{
    // A parent frame is its 16-byte header (tag, version, payload
    // length) followed by each child's frame exactly as the child writes
    // it alone: end() back-patches the length at every nesting level.
    const auto mc = MachineConfig::scaledDefault();
    Machine m(mc);
    churnMachine(m, 19);
    const auto framed = [](std::uint32_t tag, std::uint32_t version,
                           std::initializer_list<std::vector<std::uint8_t>>
                               children) {
        ByteSink out;
        out.putU32(tag);
        out.putU32(version);
        std::uint64_t len = 0;
        for (const auto &c : children)
            len += c.size();
        out.putU64(len);
        for (const auto &c : children)
            out.putBytes(c.data(), c.size());
        return out.take();
    };
    const auto hier = snapshotToBytes(m.hier);
    EXPECT_EQ(hier, framed(fourcc('H', 'I', 'E', 'R'), 1,
                           {snapshotToBytes(m.hier.il1()),
                            snapshotToBytes(m.hier.dl1()),
                            snapshotToBytes(m.hier.l2())}));
    EXPECT_EQ(snapshotToBytes(m),
              framed(Machine::snapshotTag, Machine::snapshotVersion,
                     {hier, snapshotToBytes(m.bp)}));
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
    // Frame header layout: tag (4), then version (4). Deserializer::begin
    // is the one frame-version check; its message names both versions.
    bytes[4] = 0x7f;
    try {
        restoreFromBytes(b, bytes);
        FAIL() << "version-skewed cache frame accepted";
    } catch (const CorruptInputError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("CACH"), std::string::npos) << what;
        EXPECT_NE(what.find("found v127"), std::string::npos) << what;
        EXPECT_NE(what.find("reads v1"), std::string::npos) << what;
    }
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

TEST(Snapshot, TrailingBytesThrowCorrupt)
{
    cache::Cache a(smallCacheParams()), b(smallCacheParams());
    auto bytes = snapshotToBytes(a);
    bytes.push_back(0);
    EXPECT_THROW(restoreFromBytes(b, bytes), CorruptInputError);
}

/**
 * Frames carry no checksum of their own: every stored frame is decoded
 * from bytes the store container hashed when it was opened. Flip one
 * byte in the middle of each kind of stored bytes a frame or trace is
 * decoded from, and the open must refuse the store.
 */
TEST(StoreIntegrity, FlippedByteInAnyBlobKindOrIndexThrowsCorrupt)
{
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("twolf"));
    SampledConfig cfg;
    cfg.totalInsts = 60'000;
    cfg.regimen = {3, 500};
    cfg.machine = MachineConfig::scaledDefault();
    const auto rsr = makePolicyByName("rsr40");
    const auto store =
        LivePointStore::create(prog, *rsr, cfg, "twolf", "rsr40");
    const std::vector<std::uint8_t> &file = store.serialize();
    EXPECT_NO_THROW(LivePointStore::deserialize(file));

    const BlobStoreReader reader(file);
    const auto middleOf = [&](std::span<const std::uint8_t> blob) {
        return static_cast<std::size_t>(blob.data() -
                                        reader.fileBytes().data()) +
               blob.size() / 2;
    };
    const LivePointEntry &first = store.entries().front();
    ASSERT_TRUE(first.hasContext);
    // The index follows the 24-byte container header; its LVPT frame
    // header is 16 bytes.
    const std::vector<std::uint8_t> &index = reader.index();
    ASSERT_TRUE(std::equal(index.begin(), index.end(), file.begin() + 24));
    const std::pair<const char *, std::size_t> flips[] = {
        {"state blob", middleOf(reader.blob(first.stateHash))},
        {"trace blob", middleOf(reader.blob(first.traceHash))},
        {"context blob", middleOf(reader.blob(first.contextHash))},
        {"LVPT payload", 24 + 16 + (index.size() - 16) / 2},
    };
    for (const auto &[what, at] : flips) {
        auto bytes = file;
        bytes[at] ^= 0x40;
        EXPECT_THROW(LivePointStore::deserialize(std::move(bytes)),
                     CorruptInputError)
            << what << " byte " << at;
    }
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
