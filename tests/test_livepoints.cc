/**
 * @file
 * Live-point store tests: the content-addressed blob container's
 * validation and corruption detection, producer/consumer equivalence
 * (replay-from-store must reproduce the direct deferred run bit-exactly,
 * Table-2 wide), serialization round-trips, core-parameter sweeps over
 * one capture, and state-restoration fidelity of the underlying
 * Snapshotables.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ios>
#include <span>
#include <sstream>

#include "branch/predictor.hh"
#include "cache/cache.hh"
#include "core/config_file.hh"
#include "core/livepoint_store.hh"
#include "core/warmup.hh"
#include "harness/estimator_run.hh"
#include "harness/parallel_run.hh"
#include "trace/trace.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "util/random.hh"
#include "util/serial.hh"
#include "util/snapshot.hh"
#include "workload/synthetic.hh"

namespace rsr::core
{
namespace
{

// ---------------------------------------------------------------- blobs

std::vector<std::uint8_t>
someBytes(std::uint8_t seed, std::size_t n)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed + i * 7);
    return v;
}

/** An owned copy of a blob view, for comparing with the bytes added. */
std::vector<std::uint8_t>
bytesOf(std::span<const std::uint8_t> view)
{
    return {view.begin(), view.end()};
}

TEST(ContentStore, RoundTripPreservesIndexAndBlobs)
{
    BlobStoreWriter w;
    const auto a = someBytes(1, 100);
    const auto b = someBytes(2, 50);
    const std::uint64_t ha = w.add(a);
    const std::uint64_t hb = w.add(b);
    EXPECT_NE(ha, hb);
    const std::vector<std::uint8_t> index{'i', 'd', 'x'};
    const auto file = w.finish(index);

    BlobStoreReader r(file);
    EXPECT_EQ(r.index(), index);
    EXPECT_EQ(bytesOf(r.blob(ha)), a);
    EXPECT_EQ(bytesOf(r.blob(hb)), b);
    EXPECT_EQ(r.blobCount(), 2u);
    EXPECT_EQ(r.storedBytes(), 150u);
    EXPECT_EQ(r.fileBytes(), file);
}

TEST(ContentStore, BlobsAreViewsIntoTheContainer)
{
    // An open store holds its bytes once: every blob is a view into the
    // container buffer, never a second copy.
    BlobStoreWriter w;
    std::vector<std::uint64_t> hashes;
    for (std::uint8_t seed = 0; seed < 4; ++seed)
        hashes.push_back(w.add(someBytes(seed, 40 + seed)));
    const BlobStoreReader r(w.finish(someBytes(9, 12)));
    const std::uint8_t *begin = r.fileBytes().data();
    const std::uint8_t *end = begin + r.fileBytes().size();
    for (const std::uint64_t h : hashes) {
        const auto view = r.blob(h);
        EXPECT_GE(view.data(), begin);
        EXPECT_LE(view.data() + view.size(), end);
    }
}

TEST(ContentStore, IdenticalPayloadsDedupToOneBlob)
{
    BlobStoreWriter w;
    const auto a = someBytes(9, 200);
    const std::uint64_t h1 = w.add(a);
    const std::uint64_t h2 = w.add(a);
    EXPECT_EQ(h1, h2);
    EXPECT_EQ(w.blobCount(), 1u);
    EXPECT_EQ(w.storedBytes(), 200u);
}

TEST(ContentStore, TruncatedFileThrowsCorruptInput)
{
    BlobStoreWriter w;
    w.add(someBytes(3, 64));
    auto file = w.finish(someBytes(4, 32));
    // Shorter than the fixed header: unreadable outright.
    std::vector<std::uint8_t> stub(file.begin(), file.begin() + 10);
    EXPECT_THROW(BlobStoreReader{stub}, CorruptInputError);
    // Torn mid-index: the declared index length overruns the file.
    std::vector<std::uint8_t> torn(file.begin(), file.begin() + 30);
    EXPECT_THROW(BlobStoreReader{torn}, CorruptInputError);
    // Torn mid-blob-table.
    file.resize(file.size() - 5);
    EXPECT_THROW(BlobStoreReader{file}, CorruptInputError);
}

TEST(ContentStore, BitFlipAnywhereThrowsCorruptInput)
{
    BlobStoreWriter w;
    w.add(someBytes(5, 64));
    const auto file = w.finish(someBytes(6, 32));
    // Every single-bit flip outside the version word must be caught by
    // the index checksum, a blob content hash, or a bounds check. (The
    // version word has its own dedicated error; see VersionSkew below.)
    for (std::size_t pos : {std::size_t{0}, file.size() / 3,
                            file.size() / 2, file.size() - 1}) {
        auto bad = file;
        bad[pos] ^= 0x10;
        EXPECT_THROW(BlobStoreReader{bad}, CorruptInputError) << pos;
    }
}

TEST(ContentStore, VersionSkewNamesBothVersions)
{
    BlobStoreWriter w;
    w.add(someBytes(7, 16));
    auto file = w.finish({});
    file[4] += 1; // the little-endian version word follows the magic
    try {
        BlobStoreReader r(file);
        FAIL() << "version skew accepted";
    } catch (const CorruptInputError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("version"), std::string::npos) << msg;
    }
}

TEST(ContentStore, TrailingBytesThrowCorruptInput)
{
    BlobStoreWriter w;
    w.add(someBytes(8, 16));
    auto file = w.finish({});
    file.push_back(0);
    EXPECT_THROW(BlobStoreReader{file}, CorruptInputError);
}

TEST(ContentStore, UnknownHashLookupThrowsCorruptInput)
{
    BlobStoreWriter w;
    const std::uint64_t h = w.add(someBytes(1, 8));
    BlobStoreReader r(w.finish({}));
    EXPECT_NO_THROW(r.blob(h));
    EXPECT_THROW(r.blob(h ^ 1), CorruptInputError);
}

// ----------------------------------------------------------- live-points

/** Hexfloat per-cluster CSV: equal strings mean bit-equal statistics. */
std::string
clusterCsv(const SampledResult &r)
{
    std::ostringstream os;
    os << std::hexfloat;
    os << "cluster,ipc\n";
    for (std::size_t i = 0; i < r.clusterIpc.size(); ++i)
        os << i << "," << r.clusterIpc[i] << "\n";
    os << "mean," << r.estimate.mean << "\n";
    os << "ci," << r.estimate.ciLow << "," << r.estimate.ciHigh << "\n";
    os << "cycles," << r.hotCycles << ",mispred," << r.branchMispredicts
       << "\n";
    return os.str();
}

class LivePoints : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        prog = new func::Program(workload::buildSynthetic(
            workload::standardWorkloadParams("twolf")));
        cfg = new SampledConfig();
        cfg->totalInsts = 300'000;
        cfg->regimen = {10, 2000};
        cfg->machine = MachineConfig::scaledDefault();

        auto smarts = makePolicyByName("smarts");
        store = new LivePointStore(LivePointStore::create(
            *prog, *smarts, *cfg, "twolf", "smarts"));
        // The deferred estimator the capture pass mirrors: a direct
        // runSampledParallel with one worker.
        auto smarts2 = makePolicyByName("smarts");
        reference = new SampledResult(
            harness::runSampledParallel(*prog, *smarts2, *cfg, 1));
    }

    static void
    TearDownTestSuite()
    {
        delete prog;
        delete cfg;
        delete store;
        delete reference;
    }

    static func::Program *prog;
    static SampledConfig *cfg;
    static LivePointStore *store;
    static SampledResult *reference;
};

func::Program *LivePoints::prog = nullptr;
SampledConfig *LivePoints::cfg = nullptr;
LivePointStore *LivePoints::store = nullptr;
SampledResult *LivePoints::reference = nullptr;

TEST_F(LivePoints, CaptureShapes)
{
    ASSERT_EQ(store->clusterCount(), cfg->regimen.numClusters);
    EXPECT_EQ(store->meta().workload, "twolf");
    EXPECT_EQ(store->meta().policy, "smarts");
    EXPECT_EQ(store->meta().totalInsts, cfg->totalInsts);
    for (std::size_t i = 0; i < store->clusterCount(); ++i) {
        const auto task = store->makeReplayTask(i);
        EXPECT_EQ(task.index, i);
        EXPECT_EQ(task.trace.size(), cfg->regimen.clusterSize) << i;
        EXPECT_GT(task.machineState.size(), 0u) << i;
        // SMARTS carries no measurement context; the entry says so.
        EXPECT_FALSE(store->entries()[i].hasContext) << i;
        EXPECT_EQ(task.context, nullptr) << i;
    }
    EXPECT_GT(store->serialize().size(), 0u);
    EXPECT_GE(store->dedupRatio(), 1.0);
    EXPECT_GT(store->bytesPerCluster(), 0.0);
}

TEST_F(LivePoints, TraceSequenceNumbersAreContiguousFromFirstSeq)
{
    // The traces the functional pass produced, before any encoding.
    auto smarts = makePolicyByName("smarts");
    const std::vector<Cluster> schedule = scheduleFor(*cfg);
    RegionProducer producer(*prog, schedule, {smarts.get()}, *cfg);
    std::vector<std::vector<func::DynInst>> traces;
    RegionLog region;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        producer.produce(region);
        traces.push_back(region.trace);
    }
    ASSERT_EQ(traces.size(), store->clusterCount());

    for (std::size_t i = 0; i < store->clusterCount(); ++i) {
        const auto task = store->makeReplayTask(i);
        const auto &want = traces[i];
        ASSERT_EQ(task.trace.size(), want.size()) << i;
        // The first sequence number is the cluster's first instruction.
        std::uint64_t seq = store->entries()[i].cluster.start;
        for (std::size_t k = 0; k < want.size(); ++k) {
            const auto &got = task.trace[k];
            EXPECT_EQ(got.seq, seq++) << i << ":" << k;
            EXPECT_EQ(got.seq, want[k].seq) << i << ":" << k;
            EXPECT_EQ(got.pc, want[k].pc) << i << ":" << k;
            EXPECT_EQ(got.nextPc, want[k].nextPc) << i << ":" << k;
            EXPECT_EQ(got.effAddr, want[k].effAddr) << i << ":" << k;
            EXPECT_EQ(got.inst, want[k].inst) << i << ":" << k;
            EXPECT_EQ(got.taken, want[k].taken) << i << ":" << k;
        }
    }
}

TEST_F(LivePoints, MalformedTraceBlobFailsAtOpen)
{
    // Rebuild the store with entry 0's trace blob replaced: the new
    // blob's content hash is valid, so only the load-time trace check
    // stands between a malformed payload and the replay path.
    const BlobStoreReader original(store->serialize());
    const auto &entries = store->entries();
    const auto withTrace0 = [&](const std::vector<std::uint8_t> &trace) {
        BlobStoreWriter w;
        for (const auto &e : entries) {
            w.add(bytesOf(original.blob(e.stateHash)));
            if (e.hasContext)
                w.add(bytesOf(original.blob(e.contextHash)));
            if (&e != &entries[0])
                w.add(bytesOf(original.blob(e.traceHash)));
        }
        const std::uint64_t hash = w.add(trace);

        // Point entry 0 at the new blob; finish() re-seals the index
        // under a fresh container checksum. The index frame header is
        // tag (4) + version (4) + payload length (8).
        auto index = original.index();
        ByteSink old_hash, new_hash;
        old_hash.putU64(entries[0].traceHash);
        new_hash.putU64(hash);
        const auto at = std::search(index.begin() + 16, index.end(),
                                    old_hash.bytes().begin(),
                                    old_hash.bytes().end());
        if (at == index.end()) {
            ADD_FAILURE() << "entry 0 trace hash not found in the index";
            return std::vector<std::uint8_t>{};
        }
        std::copy(new_hash.bytes().begin(), new_hash.bytes().end(), at);
        return w.finish(index);
    };

    // Control: a well-formed blob of the right length opens, so the
    // failures below come from the trace check, not the rebuild.
    ASSERT_EQ(entries[0].cluster.size, entries[1].cluster.size);
    const auto swapped = LivePointStore::deserialize(
        withTrace0(bytesOf(original.blob(entries[1].traceHash))));
    EXPECT_EQ(swapped.entries()[0].traceHash, entries[1].traceHash);

    const auto good = bytesOf(original.blob(entries[0].traceHash));
    auto truncated = good;
    truncated.pop_back(); // every record ends in a word or varint byte
    EXPECT_THROW(LivePointStore::deserialize(withTrace0(truncated)),
                 CorruptInputError);

    auto trailing = good;
    trailing.push_back(1); // a sequential record missing its word
    EXPECT_THROW(LivePointStore::deserialize(withTrace0(trailing)),
                 CorruptInputError);

    const auto decoded = store->makeReplayTask(0).trace;
    trace::TraceEncoder short_one;
    for (std::size_t k = 0; k + 1 < decoded.size(); ++k)
        short_one.append(decoded[k]);
    EXPECT_THROW(
        LivePointStore::deserialize(withTrace0(short_one.bytes())),
        CorruptInputError);
}

TEST_F(LivePoints, DerivedIndexFieldsMatchCapture)
{
    // The index stores no candidate count, offered-bytes word or first
    // sequence number: each is derived on open. The derived values must
    // equal the ones an index that stored them recorded for these
    // gcc/rsr40 captures (dedup 1.0; 12, 48 and 48 candidates).
    const auto gcc = workload::buildSynthetic(
        workload::standardWorkloadParams("gcc"));
    SampledConfig gcc_cfg;
    gcc_cfg.totalInsts = 400'000;
    gcc_cfg.regimen = {12, 2000};
    gcc_cfg.machine = MachineConfig::scaledDefault();
    struct Capture
    {
        SamplingPolicyKind kind;
        std::uint64_t candidates;
    };
    for (const Capture c :
         {Capture{SamplingPolicyKind::UniformCluster, 12},
          Capture{SamplingPolicyKind::RankedSet, 48},
          Capture{SamplingPolicyKind::TwoPhaseStratified, 48}}) {
        EstimatorOptions opts;
        opts.kind = c.kind;
        SCOPED_TRACE(samplingPolicyName(c.kind));
        const auto store = LivePointStore::deserialize(
            harness::captureEstimatorStore(gcc, "rsr40", gcc_cfg, opts,
                                           "gcc")
                .serialize());
        EXPECT_EQ(store.dedupRatio(), 1.0);
        EXPECT_EQ(estimatorCandidateCount(store.meta().regimen.numClusters,
                                          store.meta().estimator),
                  c.candidates);
        for (std::size_t i = 0; i < store.clusterCount(); ++i) {
            const auto task = store.makeReplayTask(i);
            ASSERT_FALSE(task.trace.empty()) << i;
            EXPECT_EQ(task.trace.front().seq,
                      store.entries()[i].cluster.start)
                << i;
        }
        const auto direct =
            harness::runEstimator(gcc, "rsr40", gcc_cfg, opts, 1);
        for (const unsigned jobs : {1u, 4u}) {
            const auto r = harness::replayStoreParallel(store, jobs);
            EXPECT_EQ(r.clusterIpc, direct.sampled.clusterIpc) << jobs;
            EXPECT_EQ(r.estimate.mean, direct.sampled.estimate.mean)
                << jobs;
            EXPECT_EQ(r.estimate.stdErr, direct.sampled.estimate.stdErr)
                << jobs;
        }
    }

    // Entries that all reference entry 0's state blob, built the way
    // MalformedTraceBlobFailsAtOpen builds its store: the shared blob is
    // stored once but offered once per entry, so the ratio is the
    // referenced blob sizes over the stored ones, above 1.
    const BlobStoreReader original(store->serialize());
    const auto &entries = store->entries();
    ASSERT_GE(entries.size(), 2u);
    BlobStoreWriter w;
    std::uint64_t offered = 0;
    const auto add = [&](std::uint64_t hash) {
        const auto bytes = bytesOf(original.blob(hash));
        offered += bytes.size();
        w.add(bytes);
    };
    for (const auto &e : entries) {
        add(entries[0].stateHash);
        add(e.traceHash);
        if (e.hasContext)
            add(e.contextHash);
    }
    auto index = original.index();
    ByteSink shared_hash;
    shared_hash.putU64(entries[0].stateHash);
    for (std::size_t i = 1; i < entries.size(); ++i) {
        ByteSink old_hash;
        old_hash.putU64(entries[i].stateHash);
        // Past the 16-byte frame header; entry 0's own field comes
        // first, so an equal hash finds it and is left as it is.
        const auto at = std::search(index.begin() + 16, index.end(),
                                    old_hash.bytes().begin(),
                                    old_hash.bytes().end());
        ASSERT_NE(at, index.end()) << i;
        std::copy(shared_hash.bytes().begin(), shared_hash.bytes().end(),
                  at);
    }
    const auto shared = LivePointStore::deserialize(w.finish(index));
    for (const auto &e : shared.entries())
        EXPECT_EQ(e.stateHash, entries[0].stateHash);
    EXPECT_GT(shared.dedupRatio(), 1.0);
    EXPECT_EQ(shared.dedupRatio(),
              static_cast<double>(offered) / w.storedBytes());
}

TEST_F(LivePoints, AllocFaultOnStoreOpenThrowsBadAlloc)
{
    // --fault-alloc: opening a store guards its large allocations, so an
    // injected allocation failure surfaces as std::bad_alloc (not a
    // SimError), and the same bytes open once the injector is disarmed.
    const auto bytes = store->serialize();
    {
        FaultConfig fc;
        fc.seed = 11;
        fc.allocFailProb = 1.0;
        ScopedFaultInjection guard(fc);
        EXPECT_THROW(LivePointStore::deserialize(bytes), std::bad_alloc);
    }
    EXPECT_EQ(LivePointStore::deserialize(bytes).storeHash(),
              store->storeHash());
}

TEST_F(LivePoints, ReplayMatchesDeferredRunExactly)
{
    // The snapshot + context fully determine the cluster's initial
    // state, so replay must reproduce per-cluster IPCs bit-exactly.
    const auto r = harness::replayStoreParallel(*store, 1);
    ASSERT_EQ(r.clusterIpc.size(), reference->clusterIpc.size());
    for (std::size_t i = 0; i < r.clusterIpc.size(); ++i)
        EXPECT_DOUBLE_EQ(r.clusterIpc[i], reference->clusterIpc[i]) << i;
    EXPECT_EQ(r.hotCycles, reference->hotCycles);
    EXPECT_EQ(r.branchMispredicts, reference->branchMispredicts);
    EXPECT_DOUBLE_EQ(r.estimate.mean, reference->estimate.mean);
    EXPECT_DOUBLE_EQ(r.estimate.ciLow, reference->estimate.ciLow);
}

TEST_F(LivePoints, ReplayWithMeasureContextMatches)
{
    // RSR reconstructs predictor state on demand during measurement; the
    // serialized MeasureContext must round-trip bit-exactly
    // (the retired LivePointLibrary's documented gap).
    auto rsr = makePolicyByName("rsr40");
    const auto rsr_store = LivePointStore::create(*prog, *rsr, *cfg,
                                                  "twolf", "rsr40");
    auto rsr2 = makePolicyByName("rsr40");
    const auto direct =
        harness::runSampledParallel(*prog, *rsr2, *cfg, 1);

    bool any_context = false;
    for (const auto &e : rsr_store.entries())
        any_context = any_context || e.hasContext;
    EXPECT_TRUE(any_context);

    const auto r = harness::replayStoreParallel(rsr_store, 1);
    ASSERT_EQ(r.clusterIpc.size(), direct.clusterIpc.size());
    for (std::size_t i = 0; i < r.clusterIpc.size(); ++i)
        EXPECT_DOUBLE_EQ(r.clusterIpc[i], direct.clusterIpc[i]) << i;
    EXPECT_EQ(r.branchMispredicts, direct.branchMispredicts);
    // Replay repeats only the measure-time context work; the front
    // half's reconstruction happened once, at capture, and must not
    // recur. So replay's warm-work is positive but strictly below the
    // direct run's combined front-half + measure-time total.
    EXPECT_GT(r.warmWork.reconstructionUpdates, 0u);
    EXPECT_LT(r.warmWork.reconstructionUpdates,
              direct.warmWork.reconstructionUpdates);
}

TEST_F(LivePoints, SerializeRoundTrip)
{
    const auto bytes = store->serialize();
    const auto copy = LivePointStore::deserialize(bytes);
    ASSERT_EQ(copy.clusterCount(), store->clusterCount());
    EXPECT_EQ(copy.storeHash(), store->storeHash());
    EXPECT_EQ(copy.configHash(), store->configHash());
    for (std::size_t i = 0; i < copy.clusterCount(); ++i) {
        EXPECT_EQ(copy.entries()[i].stateHash,
                  store->entries()[i].stateHash);
        EXPECT_EQ(copy.entries()[i].traceHash,
                  store->entries()[i].traceHash);
        EXPECT_EQ(copy.entries()[i].cluster.start,
                  store->entries()[i].cluster.start);
    }
    const auto r1 = harness::replayStoreParallel(*store, 1);
    const auto r2 = harness::replayStoreParallel(copy, 1);
    for (std::size_t i = 0; i < r1.clusterIpc.size(); ++i)
        EXPECT_DOUBLE_EQ(r1.clusterIpc[i], r2.clusterIpc[i]);
}

TEST_F(LivePoints, ParallelReplayMatchesSerial)
{
    const auto serial = harness::replayStoreParallel(*store, 1);
    const auto parallel = harness::replayStoreParallel(*store, 3);
    ASSERT_EQ(parallel.clusterIpc.size(), serial.clusterIpc.size());
    EXPECT_EQ(parallel.clusterIpc, serial.clusterIpc);
    EXPECT_EQ(parallel.hotCycles, serial.hotCycles);
    EXPECT_DOUBLE_EQ(parallel.estimate.mean, serial.estimate.mean);
}

TEST_F(LivePoints, CoreSweepOverOneCapture)
{
    // The core configuration may vary per replay: narrower machines must
    // not be faster than wider ones.
    auto narrow = cfg->machine;
    narrow.core.issueWidth = 1;
    narrow.core.fetchWidth = 2;
    narrow.core.dispatchWidth = 2;
    auto wide = cfg->machine;
    wide.core.issueWidth = 8;
    wide.core.numFUs = 8;
    const auto rn = harness::replayStoreParallel(*store, narrow, 1);
    const auto rw = harness::replayStoreParallel(*store, wide, 1);
    EXPECT_LT(rn.estimate.mean, rw.estimate.mean);
    EXPECT_GT(rn.hotCycles, rw.hotCycles);
}

TEST_F(LivePoints, ConfigHashDetectsParameterChanges)
{
    EXPECT_EQ(store->configHash(),
              LivePointStore::configHash("twolf", "smarts", *cfg));
    auto other = *cfg;
    other.regimen.clusterSize += 1;
    EXPECT_NE(store->configHash(),
              LivePointStore::configHash("twolf", "smarts", other));
    EXPECT_NE(store->configHash(),
              LivePointStore::configHash("twolf", "rsr40", *cfg));
    EXPECT_NE(store->configHash(),
              LivePointStore::configHash("gcc", "smarts", *cfg));

    // The key covers only what a capture holds: timing (`core.*`)
    // fields leave it alone, cache and predictor geometry change it.
    for (const char *kv :
         {"core.rob_size=32", "core.issue_width=2",
          "core.store_forwarding=1", "core.forward_latency=3"}) {
        auto timing = *cfg;
        applyMachineSetting(timing.machine, kv);
        EXPECT_EQ(store->configHash(),
                  LivePointStore::configHash("twolf", "smarts", timing))
            << kv;
    }
    for (const char *kv :
         {"dl1.size_bytes=16384", "l2.assoc=4", "il1.line_bytes=32",
          "bp.pht_entries=4096", "bp.btb_entries=1024"}) {
        auto geometry = *cfg;
        applyMachineSetting(geometry.machine, kv);
        EXPECT_NE(store->configHash(),
                  LivePointStore::configHash("twolf", "smarts", geometry))
            << kv;
    }
}

/** A machine-key test row: a value off the scaled default, and where a
 *  MachineConfig keeps it. */
struct MachineKeyRow
{
    const char *key;
    std::uint64_t value;
    std::uint64_t (*get)(const MachineConfig &);
};

#define KEY_ROW(key, value, member)                                       \
    MachineKeyRow                                                         \
    {                                                                     \
        key, value, [](const MachineConfig &m) {                          \
            return static_cast<std::uint64_t>(m.member);                  \
        }                                                                 \
    }

TEST_F(LivePoints, EveryMachineKeySurvivesStoreMetadataRoundTrip)
{
    // Every key applyMachineOption accepts, set together to a valid
    // machine off the scaled default: a store's metadata must give each
    // value back, or replay runs a different machine than the capture.
    const MachineKeyRow rows[] = {
        KEY_ROW("il1.size_bytes", 32768, hier.il1.sizeBytes),
        KEY_ROW("il1.assoc", 2, hier.il1.assoc),
        KEY_ROW("il1.line_bytes", 32, hier.il1.lineBytes),
        KEY_ROW("il1.hit_latency", 2, hier.il1.hitLatency),
        KEY_ROW("dl1.size_bytes", 16384, hier.dl1.sizeBytes),
        KEY_ROW("dl1.assoc", 2, hier.dl1.assoc),
        KEY_ROW("dl1.line_bytes", 32, hier.dl1.lineBytes),
        KEY_ROW("dl1.hit_latency", 3, hier.dl1.hitLatency),
        KEY_ROW("l2.size_bytes", 262144, hier.l2.sizeBytes),
        KEY_ROW("l2.assoc", 4, hier.l2.assoc),
        KEY_ROW("l2.line_bytes", 128, hier.l2.lineBytes),
        KEY_ROW("l2.hit_latency", 14, hier.l2.hitLatency),
        KEY_ROW("l1bus.width_bytes", 32, hier.l1Bus.widthBytes),
        KEY_ROW("l1bus.cpu_cycles_per_bus_cycle", 3,
                hier.l1Bus.cpuCyclesPerBusCycle),
        KEY_ROW("l2bus.width_bytes", 64, hier.l2Bus.widthBytes),
        KEY_ROW("l2bus.cpu_cycles_per_bus_cycle", 2,
                hier.l2Bus.cpuCyclesPerBusCycle),
        KEY_ROW("mem.latency", 150, hier.memLatency),
        KEY_ROW("bp.pht_entries", 4096, bp.phtEntries),
        KEY_ROW("bp.history_bits", 12, bp.historyBits),
        KEY_ROW("bp.btb_entries", 256, bp.btbEntries),
        KEY_ROW("bp.ras_entries", 16, bp.rasEntries),
        KEY_ROW("core.fetch_width", 4, core.fetchWidth),
        KEY_ROW("core.dispatch_width", 4, core.dispatchWidth),
        KEY_ROW("core.issue_width", 2, core.issueWidth),
        KEY_ROW("core.retire_width", 2, core.retireWidth),
        KEY_ROW("core.rob_size", 32, core.robSize),
        KEY_ROW("core.iq_size", 16, core.iqSize),
        KEY_ROW("core.lsq_size", 32, core.lsqSize),
        KEY_ROW("core.num_fus", 4, core.numFUs),
        KEY_ROW("core.frontend_delay", 2, core.frontendDelay),
        KEY_ROW("core.min_mispredict_penalty", 6,
                core.minMispredictPenalty),
        KEY_ROW("core.max_unresolved_branches", 4,
                core.maxUnresolvedBranches),
        KEY_ROW("core.fetch_buffer_size", 8, core.fetchBufferSize),
        KEY_ROW("core.int_alu_lat", 2, core.intAluLat),
        KEY_ROW("core.int_mul_lat", 4, core.intMulLat),
        KEY_ROW("core.int_div_lat", 24, core.intDivLat),
        KEY_ROW("core.fp_add_lat", 3, core.fpAddLat),
        KEY_ROW("core.fp_mul_lat", 5, core.fpMulLat),
        KEY_ROW("core.fp_div_lat", 14, core.fpDivLat),
        KEY_ROW("core.forward_latency", 2, core.forwardLatency),
        KEY_ROW("core.store_forwarding", 1, core.storeForwarding),
    };
    SampledConfig small = *cfg;
    small.totalInsts = 60'000;
    small.regimen = {3, 1000};
    for (const MachineKeyRow &r : rows)
        applyMachineOption(small.machine, r.key, std::to_string(r.value));

    auto policy = makePolicyByName("smarts");
    const auto captured =
        LivePointStore::create(*prog, *policy, small, "twolf", "smarts");
    const auto reopened = LivePointStore::deserialize(captured.serialize());
    for (const MachineKeyRow &r : rows) {
        ASSERT_EQ(r.get(small.machine), r.value) << r.key << " not applied";
        EXPECT_EQ(r.get(reopened.meta().machine), r.value) << r.key;
    }
}

#undef KEY_ROW

TEST_F(LivePoints, StoreForwardingCaptureReplaysBitIdentical)
{
    // A store captured with store forwarding on replays under its own
    // metadata machine exactly as the direct run (perl forwards loads
    // inside these clusters).
    const auto perl = workload::buildSynthetic(
        workload::standardWorkloadParams("perl"));
    SampledConfig fwd;
    fwd.totalInsts = 200'000;
    fwd.regimen = {10, 1000};
    fwd.machine = MachineConfig::scaledDefault();
    applyMachineSetting(fwd.machine, "core.store_forwarding=1");

    const auto direct = harness::runSampledParallel(
        perl, *makePolicyByName("smarts"), fwd, 2);
    const auto captured = LivePointStore::create(
        perl, *makePolicyByName("smarts"), fwd, "perl", "smarts");
    EXPECT_EQ(clusterCsv(harness::replayStoreParallel(captured, 2)),
              clusterCsv(direct));
}

// ------------------------------------------- Table-2-wide equivalence

TEST(LivePointsTable2, ReplayEquivalentForAllPolicies)
{
    // The whole Table-2 matrix: for every warm-up policy, a store
    // captured once and replayed (serially and on workers) must emit a
    // byte-identical statistics CSV to the direct deferred run.
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("gcc"));
    SampledConfig cfg;
    cfg.totalInsts = 150'000;
    cfg.regimen = {8, 1500};
    cfg.machine = MachineConfig::scaledDefault();

    for (const std::string &name : table2PolicyNames()) {
        auto p1 = makePolicyByName(name);
        const auto direct =
            harness::runSampledParallel(prog, *p1, cfg, 1);

        auto p2 = makePolicyByName(name);
        const auto store =
            LivePointStore::create(prog, *p2, cfg, "gcc", name);
        const auto replayed = harness::replayStoreParallel(store, 2);

        EXPECT_EQ(clusterCsv(replayed), clusterCsv(direct)) << name;
    }
}

// --------------------------------------------------- retained fixtures

TEST(SerialHelpers, PrimitivesRoundTrip)
{
    ByteSink out;
    out.putU8(0xab);
    out.putU32(0xdeadbeef);
    out.putU64(0x0123456789abcdefull);
    const char payload[] = "hello";
    out.putBytes(payload, sizeof(payload));

    ByteSource in(out.bytes());
    EXPECT_EQ(in.getU8(), 0xabu);
    EXPECT_EQ(in.getU32(), 0xdeadbeefu);
    EXPECT_EQ(in.getU64(), 0x0123456789abcdefull);
    char back[sizeof(payload)];
    in.getBytes(back, sizeof(back));
    EXPECT_STREQ(back, "hello");
    EXPECT_TRUE(in.exhausted());
}

TEST(SerialHelpers, UnderrunThrowsInternalError)
{
    ByteSink out;
    out.putU8(1);
    ByteSource in(out.bytes());
    in.getU8();
    EXPECT_THROW(in.getU8(), InternalError);
}

TEST(CacheCheckpoint, StateRoundTrip)
{
    cache::CacheParams p;
    p.sizeBytes = 64 * 4 * 8;
    p.assoc = 4;
    p.lineBytes = 64;
    p.writePolicy = cache::WritePolicy::WriteBackAllocate;
    cache::Cache a(p), b(p);
    Rng rng(3);
    for (int i = 0; i < 500; ++i)
        a.access(rng.below(200) * 64, rng.chance(0.4));

    restoreFromBytes(b, snapshotToBytes(a));
    for (std::uint64_t line = 0; line < 200; ++line) {
        ASSERT_EQ(a.probe(line * 64), b.probe(line * 64)) << line;
        ASSERT_EQ(a.recencyOf(line * 64), b.recencyOf(line * 64)) << line;
    }
}

TEST(PredictorCheckpoint, StateRoundTrip)
{
    branch::PredictorParams pp;
    pp.phtEntries = 512;
    pp.historyBits = 9;
    pp.btbEntries = 32;
    pp.rasEntries = 4;
    branch::GsharePredictor a(pp), b(pp);
    Rng rng(4);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t pc = 0x1000 + 4 * rng.below(512);
        a.warmApply(pc, isa::BranchKind::Conditional, rng.chance(0.7),
                    pc + 64);
    }
    a.rasPush(0x123);
    a.rasPush(0x456);

    restoreFromBytes(b, snapshotToBytes(a));
    EXPECT_EQ(a.ghr(), b.ghr());
    EXPECT_EQ(a.rasContents(), b.rasContents());
    for (unsigned i = 0; i < pp.phtEntries; ++i)
        ASSERT_EQ(a.phtEntry(i), b.phtEntry(i));
    for (unsigned i = 0; i < pp.btbEntries; ++i) {
        ASSERT_EQ(a.btbEntryValid(i), b.btbEntryValid(i));
        if (a.btbEntryValid(i)) {
            ASSERT_EQ(a.btbEntryTag(i), b.btbEntryTag(i));
            ASSERT_EQ(a.btbEntryTarget(i), b.btbEntryTarget(i));
        }
    }
}

} // namespace
} // namespace rsr::core
