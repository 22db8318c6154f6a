/**
 * @file
 * Robustness tests: multi-seed statistical stability of sampled
 * estimates, short-log GHR reconstruction, bimodal predictor mode
 * (zero history bits), SimPoint parameter boundaries, degenerate
 * cache geometries, and the fault-tolerance layer — truncated and
 * bit-flipped artifacts, fault-injected campaigns, watchdog timeouts,
 * and the campaign kill-and-resume round trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/branch_reconstructor.hh"
#include "core/config_file.hh"
#include "core/livepoint_store.hh"
#include "core/sampled_sim.hh"
#include "core/warmup.hh"
#include "harness/campaign.hh"
#include "harness/estimator_run.hh"
#include "harness/json.hh"
#include "harness/manifest.hh"
#include "harness/parallel_run.hh"
#include "simpoint/simpoint.hh"
#include "trace/trace.hh"
#include "util/checksum.hh"
#include "util/content_store.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "util/fileio.hh"
#include "util/serial.hh"
#include "workload/synthetic.hh"

namespace rsr
{
namespace
{

std::vector<std::uint8_t>
slurpFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::vector<std::uint8_t> bytes;
    std::uint8_t buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
    return bytes;
}

void
spillFile(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
}

/** A small, fast campaign config rooted at a fresh temp directory. */
harness::CampaignConfig
smallCampaign(const char *tag)
{
    harness::CampaignConfig cfg;
    cfg.outDir = std::string(::testing::TempDir()) + "/rsr_campaign_" + tag;
    cfg.workloads = {"twolf", "vpr", "gcc"};
    cfg.policies = {"none", "smarts"};
    cfg.insts = 60'000;
    cfg.clusters = 3;
    cfg.clusterSize = 500;
    cfg.machine = core::MachineConfig::scaledDefault();
    cfg.maxRetries = 0;
    cfg.backoffMs = 1;
    // Fresh manifest regardless of leftovers from a previous test run.
    std::remove(harness::CampaignRunner::manifestPath(cfg.outDir).c_str());
    return cfg;
}

TEST(Robustness, EstimatesStableAcrossScheduleSeeds)
{
    // Different cluster placements: SMARTS estimates should scatter
    // around a common value, each within a loose band of the pooled mean.
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("vpr"));
    core::SampledConfig cfg;
    cfg.totalInsts = 600'000;
    cfg.regimen = {20, 2000};
    cfg.machine = core::MachineConfig::scaledDefault();

    std::vector<double> means;
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
        cfg.scheduleSeed = seed;
        auto smarts = core::makePolicyByName("smarts");
        means.push_back(
            core::runSampled(prog, *smarts, cfg).estimate.mean);
    }
    const double pooled = core::mean(means);
    for (double m : means)
        EXPECT_LT(std::fabs(m - pooled) / pooled, 0.15);
}

TEST(Robustness, GhrReconstructionWithShortLog)
{
    // Fewer logged conditionals than history bits: the reconstructed GHR
    // must combine the pre-skip GHR with the few logged outcomes.
    branch::PredictorParams pp;
    pp.phtEntries = 256;
    pp.historyBits = 8;
    pp.btbEntries = 16;
    pp.rasEntries = 4;
    branch::GsharePredictor truth(pp), rsr(pp);

    truth.setGhr(0b10110011);
    core::SkipLog log;
    log.ghrAtStart = 0b10110011;
    for (bool taken : {true, false, true}) {
        truth.warmApply(0x100, isa::BranchKind::Conditional, taken, 0x200);
        log.branches.push_back(
            {0x100, 0x200, isa::BranchKind::Conditional, taken});
    }
    core::BranchReconstructor recon(rsr);
    recon.begin(log);
    EXPECT_EQ(rsr.ghr(), truth.ghr());
    recon.end();
}

TEST(Robustness, ZeroHistoryBitsIsBimodal)
{
    // historyBits = 0 degenerates gshare into a per-PC bimodal table:
    // indices ignore outcomes entirely.
    branch::PredictorParams pp;
    pp.phtEntries = 256;
    pp.historyBits = 0;
    pp.btbEntries = 16;
    pp.rasEntries = 4;
    branch::GsharePredictor bp(pp);
    const auto idx_before = bp.phtIndex(0x1230);
    for (int i = 0; i < 10; ++i)
        bp.update(0x1230, isa::BranchKind::Conditional, (i % 2) == 0,
                  0x2000);
    EXPECT_EQ(bp.ghr(), 0u);
    EXPECT_EQ(bp.phtIndex(0x1230), idx_before);
    // Distinct PCs map to distinct entries (no history xor).
    EXPECT_NE(bp.phtIndex(0x1230), bp.phtIndex(0x1234));
}

TEST(Robustness, BimodalSampledRunWorksEndToEnd)
{
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("twolf"));
    core::SampledConfig cfg;
    cfg.totalInsts = 300'000;
    cfg.regimen = {10, 2000};
    cfg.machine = core::MachineConfig::scaledDefault();
    cfg.machine.bp.historyBits = 0;
    auto rsr = core::makePolicyByName("rsr20");
    const auto r = core::runSampled(prog, *rsr, cfg);
    EXPECT_EQ(r.clusterIpc.size(), 10u);
    EXPECT_GT(r.estimate.mean, 0.0);
}

TEST(Robustness, SimPointMaxKOne)
{
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("twolf"));
    simpoint::SimPointConfig cfg;
    cfg.intervalSize = 2000;
    cfg.maxK = 1;
    const auto sel = simpoint::pickSimPoints(prog, 100'000, cfg);
    EXPECT_EQ(sel.k, 1u);
    EXPECT_DOUBLE_EQ(sel.weights[0], 1.0);
}

TEST(Robustness, SimPointBicThresholdExtremes)
{
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("gcc"));
    simpoint::SimPointConfig low;
    low.intervalSize = 2000;
    low.maxK = 12;
    low.bicThreshold = 0.0; // accept the first (smallest) k
    const auto sel_low = simpoint::pickSimPoints(prog, 150'000, low);

    simpoint::SimPointConfig high = low;
    high.bicThreshold = 1.0; // demand the best score
    const auto sel_high = simpoint::pickSimPoints(prog, 150'000, high);
    EXPECT_LE(sel_low.k, sel_high.k);
}

TEST(Robustness, SingleSetCacheReconstruction)
{
    // Degenerate geometry: one set, fully associative behaviour.
    cache::CacheParams p;
    p.sizeBytes = 64 * 8;
    p.assoc = 8;
    p.lineBytes = 64;
    p.writePolicy = cache::WritePolicy::WriteThroughNoAllocate;
    cache::Cache fwd(p), rev(p);
    std::vector<std::uint64_t> stream;
    for (int i = 0; i < 100; ++i)
        stream.push_back((i * 7 % 20) * 64);
    for (auto a : stream)
        fwd.access(a, false);
    rev.beginReconstruction();
    for (auto it = stream.rbegin(); it != stream.rend(); ++it)
        rev.reconstructRef(*it);
    for (std::uint64_t line = 0; line < 20; ++line)
        EXPECT_EQ(fwd.recencyOf(line * 64), rev.recencyOf(line * 64));
}

TEST(Robustness, DirectMappedWholeHierarchy)
{
    // Assoc-1 everywhere still runs a full sampled simulation.
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("twolf"));
    core::SampledConfig cfg;
    cfg.totalInsts = 200'000;
    cfg.regimen = {8, 1500};
    cfg.machine = core::MachineConfig::scaledDefault();
    cfg.machine.hier.il1.assoc = 1;
    cfg.machine.hier.dl1.assoc = 1;
    cfg.machine.hier.l2.assoc = 1;
    auto rsr = core::makePolicyByName("rsr100");
    const auto r = core::runSampled(prog, *rsr, cfg);
    EXPECT_EQ(r.clusterIpc.size(), 8u);
}

TEST(Robustness, TruncatedTraceThrowsCorruptInput)
{
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("twolf"));
    const std::string path =
        std::string(::testing::TempDir()) + "/rsr_trunc.trc";
    ASSERT_EQ(trace::recordTrace(prog, 5'000, path), 5'000u);

    auto bytes = slurpFile(path);
    ASSERT_GT(bytes.size(), 64u);
    bytes.resize(bytes.size() - 16); // tear the tail off the payload
    spillFile(path, bytes);

    EXPECT_THROW(trace::TraceReader reader(path), CorruptInputError);
    std::remove(path.c_str());
}

/** Capture a tiny live-point store and save it under TempDir. */
std::string
savedSmallStore(const char *tag)
{
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("twolf"));
    core::SampledConfig cfg;
    cfg.totalInsts = 60'000;
    cfg.regimen = {3, 500};
    cfg.machine = core::MachineConfig::scaledDefault();
    auto smarts = core::makePolicyByName("smarts");
    const auto store = core::LivePointStore::create(prog, *smarts, cfg,
                                                    "twolf", "smarts");
    const std::string path = std::string(::testing::TempDir()) +
                             "/rsr_store_" + tag + ".lvpt";
    store.saveFile(path);
    return path;
}

TEST(Robustness, BitFlippedLivePointStoreThrowsCorruptInput)
{
    const std::string path = savedSmallStore("flip");

    // Sanity: the pristine file loads and replays.
    EXPECT_NO_THROW(harness::replayStoreParallel(
        core::LivePointStore::loadFile(path), 1));

    const auto pristine = slurpFile(path);
    ASSERT_GT(pristine.size(), 64u);
    // A flip anywhere — index metadata, a blob header, blob payload —
    // must be refused at load; damaged state is never silently replayed.
    for (std::size_t pos : {std::size_t{9}, pristine.size() / 3,
                            pristine.size() / 2, pristine.size() - 2}) {
        auto bytes = pristine;
        bytes[pos] ^= 0x10;
        spillFile(path, bytes);
        EXPECT_THROW(core::LivePointStore::loadFile(path),
                     CorruptInputError)
            << "flip at " << pos;
    }
    std::remove(path.c_str());
}

TEST(Robustness, TruncatedLivePointStoreThrowsCorruptInput)
{
    const std::string path = savedSmallStore("trunc");
    auto bytes = slurpFile(path);
    ASSERT_GT(bytes.size(), 64u);
    // Torn at the header, inside the index, and near the tail.
    for (std::size_t keep : {std::size_t{10}, std::size_t{40},
                             bytes.size() - 16}) {
        auto torn = bytes;
        torn.resize(keep);
        spillFile(path, torn);
        EXPECT_THROW(core::LivePointStore::loadFile(path),
                     CorruptInputError)
            << "truncated to " << keep;
    }
    std::remove(path.c_str());
}

TEST(Robustness, VersionSkewedLivePointStoreIsRejected)
{
    const std::string path = savedSmallStore("skew");
    auto bytes = slurpFile(path);
    bytes[4] += 1; // container version word (follows the 'RSRS' magic)
    spillFile(path, bytes);
    try {
        core::LivePointStore::loadFile(path);
        FAIL() << "version-skewed store accepted";
    } catch (const CorruptInputError &e) {
        // The message must name the version mismatch so a user knows to
        // recapture rather than suspect disk corruption.
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

/**
 * Re-seal @p store's blobs around @p index, a replacement index frame,
 * so the container's own checks all pass and only the index decode
 * judges the frame.
 */
std::vector<std::uint8_t>
resealedWithIndex(const core::LivePointStore &store,
                  const std::vector<std::uint8_t> &index)
{
    const BlobStoreReader reader(store.serialize());
    const auto copy = [&](std::uint64_t hash) {
        const auto blob = reader.blob(hash);
        return std::vector<std::uint8_t>(blob.begin(), blob.end());
    };
    BlobStoreWriter writer;
    for (const auto &e : store.entries()) {
        writer.add(copy(e.stateHash));
        writer.add(copy(e.traceHash));
        if (e.hasContext)
            writer.add(copy(e.contextHash));
    }
    return writer.finish(index);
}

/** Load and delete a store saved by savedSmallStore(). */
core::LivePointStore
takeSmallStore(const char *tag)
{
    const std::string path = savedSmallStore(tag);
    auto store = core::LivePointStore::loadFile(path);
    std::remove(path.c_str());
    return store;
}

TEST(Robustness, V4IndexFrameIsRejectedNamingBothVersions)
{
    // The index frame's own version word, not the container's: the v4
    // index layout (24-byte header: tag, version, payload length,
    // payload FNV-1a-64) inside an otherwise sound container.
    const auto store = takeSmallStore("v4index");
    const auto v5 = BlobStoreReader(store.serialize()).index();
    ASSERT_GT(v5.size(), 16u);
    const std::size_t payload = v5.size() - 16;
    ByteSink v4;
    v4.putBytes(v5.data(), 4); // 'LVPT'
    v4.putU32(4);
    v4.putU64(payload);
    v4.putU64(fnv64(v5.data() + 16, payload));
    v4.putBytes(v5.data() + 16, payload);
    try {
        core::LivePointStore::deserialize(
            resealedWithIndex(store, v4.bytes()));
        FAIL() << "v4 index accepted";
    } catch (const CorruptInputError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("LVPT"), std::string::npos) << what;
        EXPECT_NE(what.find("v4"), std::string::npos) << what;
        EXPECT_NE(what.find("v5"), std::string::npos) << what;
    }
}

TEST(Robustness, MalformedIndexFrameThrowsCorruptInput)
{
    // A sound container around an index frame of the wrong shape: bytes
    // after the frame, or length and count fields that claim more than
    // the frame holds. Each is refused as corrupt, and no length is
    // sized into an allocation first.
    const auto store = takeSmallStore("malformed");
    const auto pristine = BlobStoreReader(store.serialize()).index();
    const auto wordAt = [&](std::size_t at) {
        ByteSource in(pristine);
        in.skip(at);
        return in.getU64();
    };
    // Payload after the 16-byte frame header: two strings, four u64
    // schedule fields, two u8 estimator kinds, five u64 estimator
    // fields, then the machine metadata, the offered-bytes word and the
    // entry count.
    const std::size_t workload_len_at = 16;
    const std::size_t policy_len_at =
        workload_len_at + 8 + wordAt(workload_len_at);
    const std::size_t machine_len_at =
        policy_len_at + 8 + wordAt(policy_len_at) + 4 * 8 + 2 + 5 * 8;
    const std::size_t entry_count_at =
        machine_len_at + 8 + wordAt(machine_len_at) + 8;
    ASSERT_EQ(wordAt(entry_count_at), store.entries().size());
    auto trailing = pristine;
    trailing.push_back(0);
    EXPECT_THROW(core::LivePointStore::deserialize(
                     resealedWithIndex(store, trailing)),
                 CorruptInputError);
    for (const std::size_t at : {workload_len_at, policy_len_at,
                                 machine_len_at, entry_count_at}) {
        for (const std::uint64_t v :
             {std::uint64_t{pristine.size()}, std::uint64_t{1} << 60}) {
            auto index = pristine;
            for (int i = 0; i < 8; ++i)
                index[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
            EXPECT_THROW(core::LivePointStore::deserialize(
                             resealedWithIndex(store, index)),
                         CorruptInputError)
                << "field at " << at << " set to " << v;
        }
    }
}

TEST(Robustness, FaultInjectedLivePointLoadFailsTyped)
{
    const std::string path = savedSmallStore("fault");

    // Injected I/O failure: the read itself fails with the retryable
    // IoError, not a crash or a half-parsed store.
    {
        FaultConfig fc;
        fc.seed = 7;
        fc.ioFailProb = 1.0;
        ScopedFaultInjection guard(fc);
        EXPECT_THROW(core::LivePointStore::loadFile(path), IoError);
    }

    // Injected payload corruption: caught by the container's checksums.
    {
        FaultConfig fc;
        fc.seed = 7;
        fc.corruptProb = 1.0;
        ScopedFaultInjection guard(fc);
        EXPECT_THROW(core::LivePointStore::loadFile(path),
                     CorruptInputError);
    }

    // Disarmed again: the pristine file still loads.
    EXPECT_NO_THROW(core::LivePointStore::loadFile(path));
    std::remove(path.c_str());
}

TEST(Robustness, FaultInjectedCampaignRecordsFailuresThenResumes)
{
    auto cfg = smallCampaign("faulty");
    cfg.faults.seed = 0xfa017;
    cfg.faults.ioFailProb = 0.7; // most result writes fail, no retries

    harness::CampaignRunner first(cfg);
    const auto r1 = first.run();
    EXPECT_EQ(r1.total, 6u);
    EXPECT_GT(r1.failed, 0u);
    EXPECT_FALSE(r1.allComplete());
    EXPECT_EQ(r1.exitStatus(), 2);

    // Every failure is in the manifest with the io taxonomy kind.
    const auto state = harness::loadManifest(
        harness::CampaignRunner::manifestPath(cfg.outDir));
    std::uint64_t manifest_failed = 0;
    for (const auto &[id, job] : state.jobs) {
        if (job.status == harness::JobStatus::Failed) {
            ++manifest_failed;
            EXPECT_EQ(job.errorKind, "io") << id;
            EXPECT_FALSE(job.error.empty()) << id;
        }
    }
    EXPECT_EQ(manifest_failed, r1.failed);

    // Resume with faults off: completed jobs are skipped, the rest run.
    cfg.faults = FaultConfig{};
    harness::CampaignRunner second(cfg);
    const auto r2 = second.run(/*resume=*/true);
    EXPECT_EQ(r2.skipped, r1.completed);
    EXPECT_TRUE(r2.allComplete());
    EXPECT_EQ(r2.exitStatus(), 0);
}

TEST(Robustness, WatchdogTimesOutSlowJobs)
{
    auto cfg = smallCampaign("timeout");
    cfg.workloads = {"twolf"};
    cfg.policies = {"none"};
    cfg.jobTimeoutSec = 1e-6; // expires before the first cluster

    harness::CampaignRunner runner(cfg);
    const auto r = runner.run();
    EXPECT_EQ(r.total, 1u);
    EXPECT_EQ(r.failed, 1u);

    const auto state = harness::loadManifest(
        harness::CampaignRunner::manifestPath(cfg.outDir));
    ASSERT_EQ(state.jobs.count(0), 1u);
    EXPECT_EQ(state.jobs.at(0).status, harness::JobStatus::TimedOut);
    EXPECT_EQ(state.jobs.at(0).errorKind, "timeout");
}

TEST(Robustness, CampaignKillAndResumeRoundTrip)
{
    const auto cfg = smallCampaign("killresume");
    const auto manifest =
        harness::CampaignRunner::manifestPath(cfg.outDir);

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Child: run the campaign to completion (it won't get to).
        try {
            harness::CampaignRunner runner(cfg);
            runner.run();
        } catch (...) {
        }
        _exit(0);
    }

    // Parent: wait until at least one job is durably complete, then
    // SIGKILL the child mid-campaign.
    bool saw_complete = false;
    for (int i = 0; i < 3000 && !saw_complete; ++i) {
        usleep(10'000);
        try {
            const auto state = harness::loadManifest(manifest);
            for (const auto &[id, job] : state.jobs)
                if (job.status == harness::JobStatus::Complete)
                    saw_complete = true;
        } catch (const SimError &) {
            // Manifest not there yet or header still in flight.
        }
    }
    kill(child, SIGKILL);
    int wstatus = 0;
    waitpid(child, &wstatus, 0);
    ASSERT_TRUE(saw_complete) << "child never completed a job";

    // Resume: completed jobs must be skipped, the rest must finish.
    harness::CampaignRunner resumed(cfg);
    const auto r = resumed.run(/*resume=*/true);
    EXPECT_GE(r.skipped, 1u);
    EXPECT_TRUE(r.allComplete());
    EXPECT_EQ(r.completed + r.skipped, r.total);
    EXPECT_EQ(r.exitStatus(), 0);
}

TEST(Robustness, CampaignStopFlagLeavesResumableManifest)
{
    // The SIGINT/SIGTERM path without the signal: a raised stop flag
    // halts dispatch before any new job starts, the manifest stays
    // durable, and a later resume finishes exactly the stopped work.
    auto cfg = smallCampaign("stopflag");
    std::atomic<bool> stop{true}; // raised before the first dispatch
    cfg.stopFlag = &stop;

    harness::CampaignRunner stopped(cfg);
    const auto r1 = stopped.run();
    EXPECT_EQ(r1.total, 6u);
    EXPECT_EQ(r1.stopped, 6u);
    EXPECT_EQ(r1.completed, 0u);
    EXPECT_FALSE(r1.allComplete());
    EXPECT_EQ(r1.exitStatus(), 2); // incomplete, by design

    // Stopped jobs left no manifest entries: nothing half-recorded.
    const auto state = harness::loadManifest(
        harness::CampaignRunner::manifestPath(cfg.outDir));
    for (const auto &[id, job] : state.jobs)
        EXPECT_NE(job.status, harness::JobStatus::Complete);

    // Lower the flag and resume: every stopped job runs to completion.
    stop.store(false);
    harness::CampaignRunner resumed(cfg);
    const auto r2 = resumed.run(/*resume=*/true);
    EXPECT_TRUE(r2.allComplete());
    EXPECT_EQ(r2.stopped, 0u);
    EXPECT_EQ(r2.exitStatus(), 0);
}

TEST(Robustness, ResumeTruncatesTornManifestTail)
{
    // The manifest counterpart of
    // ServeJournal.TornTrailingLineDroppedAndRepaired: a resume truncates
    // a line torn by SIGKILL mid-append, so it is dropped once and never
    // glued to, or left in front of, the records that follow.
    auto cfg = smallCampaign("torntail");
    cfg.workloads = {"twolf"};
    std::atomic<bool> stop{true}; // header only: nothing dispatched
    cfg.stopFlag = &stop;
    harness::CampaignRunner(cfg).run();
    const auto manifest =
        harness::CampaignRunner::manifestPath(cfg.outDir);
    {
        std::ofstream out(manifest, std::ios::app);
        out << "{\"id\":0,\"wor";
    }
    EXPECT_EQ(harness::loadManifest(manifest).droppedLines, 1u);

    stop.store(false);
    harness::CampaignRunner resumed(cfg);
    EXPECT_TRUE(resumed.run(/*resume=*/true).allComplete());
    const auto state = harness::loadManifest(manifest);
    EXPECT_EQ(state.droppedLines, 0u);
    EXPECT_EQ(state.jobs.size(), 2u);
}

TEST(Robustness, ResumeRejectsMismatchedCampaign)
{
    auto cfg = smallCampaign("fingerprint");
    cfg.workloads = {"twolf"};
    cfg.policies = {"none"};
    harness::CampaignRunner first(cfg);
    EXPECT_TRUE(first.run().allComplete());

    auto other = cfg;
    other.policies = {"smarts"}; // different matrix, same directory
    harness::CampaignRunner second(other);
    EXPECT_THROW(second.run(/*resume=*/true), UserError);

    // The same matrix on another machine (`--machine`, `--set`,
    // `--config`) would mix results from two machines.
    std::vector<core::MachineConfig> machines(3, cfg.machine);
    machines[0] = core::MachineConfig::paperDefault();
    core::applyMachineSetting(machines[1], "core.rob_size=16");
    core::applyMachineSetting(machines[2], "dl1.size_bytes=16384");
    for (const auto &machine : machines) {
        auto moved = cfg;
        moved.machine = machine;
        harness::CampaignRunner resumed(moved);
        EXPECT_THROW(resumed.run(/*resume=*/true), UserError);
    }
    harness::CampaignRunner same(cfg);
    EXPECT_TRUE(same.run(/*resume=*/true).allComplete());
}

/** The estimate fields of a campaign job result, as written. */
std::map<std::string, std::string>
estimateFields(const std::string &json)
{
    const auto all = harness::parseJsonObject(json);
    std::map<std::string, std::string> out;
    for (const char *key :
         {"ipc", "ci_low", "ci_high", "aggregate_ipc", "clusters"})
        out[key] = all.at(key);
    return out;
}

TEST(Robustness, EverySampledRunSurfaceAgrees)
{
    // One estimator behind every surface: the serial entry point, pooled
    // replay at any job count, a live-point store round trip, and a
    // campaign job with or without live-points all report the same
    // cluster IPCs and estimate, bit for bit.
    auto camp = smallCampaign("surfaces");
    camp.workloads = {"gcc"};
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("gcc"));
    core::SampledConfig cfg;
    cfg.totalInsts = camp.insts;
    cfg.regimen = {camp.clusters, camp.clusterSize};
    cfg.scheduleSeed = camp.seed;
    cfg.machine = camp.machine;

    for (const char *name : {"rsr40", "smarts"}) {
        const auto serial =
            core::runSampled(prog, *core::makePolicyByName(name), cfg);
        ASSERT_EQ(serial.clusterIpc.size(), camp.clusters) << name;

        const auto same = [&](const core::SampledResult &r,
                              const char *surface) {
            EXPECT_EQ(r.clusterIpc, serial.clusterIpc)
                << name << " via " << surface;
            EXPECT_EQ(r.estimate.mean, serial.estimate.mean)
                << name << " via " << surface;
            EXPECT_EQ(r.estimate.ciLow, serial.estimate.ciLow)
                << name << " via " << surface;
            EXPECT_EQ(r.estimate.ciHigh, serial.estimate.ciHigh)
                << name << " via " << surface;
            EXPECT_EQ(r.hotCycles, serial.hotCycles)
                << name << " via " << surface;
        };
        for (const unsigned jobs : {1u, 3u})
            same(harness::runSampledParallel(
                     prog, *core::makePolicyByName(name), cfg, jobs),
                 jobs == 1 ? "runSampledParallel(1)"
                           : "runSampledParallel(3)");
        same(harness::replayStoreParallel(
                 core::LivePointStore::create(
                     prog, *core::makePolicyByName(name), cfg, "gcc", name),
                 1),
             "live-point store");

        const auto want = estimateFields(
            harness::JsonWriter()
                .put("ipc", serial.estimate.mean)
                .put("ci_low", serial.estimate.ciLow)
                .put("ci_high", serial.estimate.ciHigh)
                .put("aggregate_ipc", serial.aggregateIpc())
                .put("clusters",
                     static_cast<std::uint64_t>(serial.clusterIpc.size()))
                .str());
        for (const bool livepoints : {false, true}) {
            auto job = camp;
            job.policies = {name};
            job.outDir += livepoints ? "_lvpt" : "_plain";
            job.livepointDir = livepoints ? job.outDir + "/stores" : "";
            std::remove(
                harness::CampaignRunner::manifestPath(job.outDir).c_str());
            harness::CampaignRunner runner(job);
            ASSERT_TRUE(runner.run().allComplete()) << name;
            const auto bytes = slurpFile(job.outDir + "/job-0.json");
            EXPECT_EQ(estimateFields(std::string(bytes.begin(),
                                                 bytes.end())),
                      want)
                << name << (livepoints ? " campaign --livepoints"
                                       : " campaign");
        }
    }

    // Ranked-set sampling is another estimate over the same measured
    // clusters: a campaign job reports runEstimator()'s estimate whether
    // it measures directly or through a live-point store, and the
    // store leg really captures and replays one.
    auto ranked = camp;
    ranked.policies = {"rsr40"};
    ranked.clusters = 8;
    ranked.sampling.kind = core::SamplingPolicyKind::RankedSet;
    cfg.regimen.numClusters = ranked.clusters;
    const auto direct =
        harness::runEstimator(prog, "rsr40", cfg, ranked.sampling, 1);
    const auto want = estimateFields(
        harness::JsonWriter()
            .put("ipc", direct.sampled.estimate.mean)
            .put("ci_low", direct.sampled.estimate.ciLow)
            .put("ci_high", direct.sampled.estimate.ciHigh)
            .put("aggregate_ipc", direct.sampled.aggregateIpc())
            .put("clusters",
                 static_cast<std::uint64_t>(direct.sampled.clusterIpc.size()))
            .str());
    for (const bool livepoints : {false, true}) {
        auto job = ranked;
        job.outDir += livepoints ? "_ranked_lvpt" : "_ranked_plain";
        job.livepointDir = livepoints ? job.outDir + "/stores" : "";
        std::remove(harness::CampaignRunner::manifestPath(job.outDir).c_str());
        std::remove((job.outDir + "/stores/gcc-rsr40.lvpt").c_str());
        harness::CampaignRunner runner(job);
        ASSERT_TRUE(runner.run().allComplete()) << livepoints;
        const auto bytes = slurpFile(job.outDir + "/job-0.json");
        const std::string text(bytes.begin(), bytes.end());
        EXPECT_EQ(estimateFields(text), want) << livepoints;
        const auto all = harness::parseJsonObject(text);
        EXPECT_EQ(all.at("sampling"), "ranked-set");
        EXPECT_EQ(all.at("candidates"),
                  std::to_string(direct.candidateCount));
        EXPECT_EQ(all.count("store_hash"), livepoints ? 1u : 0u);
        EXPECT_EQ(all.count("proxy_insts"), livepoints ? 0u : 1u);
        EXPECT_EQ(fileExists(job.outDir + "/stores/gcc-rsr40.lvpt"),
                  livepoints);
    }
}

TEST(Robustness, LivePointCampaignCoreSweepMatchesDirectRuns)
{
    // `--livepoints` campaigns that differ only in `core.rob_size` each
    // equal their own direct run. A uniform key leaves the core out, so
    // the second campaign reuses the first one's store and replays it
    // under its own machine. A two-phase selection times its pilot on
    // the core, so its key covers the core: the two cores pick
    // different schedules and the second campaign recaptures.
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("twolf"));
    for (const auto kind : {core::SamplingPolicyKind::UniformCluster,
                            core::SamplingPolicyKind::TwoPhaseStratified}) {
        const bool uniform = kind == core::SamplingPolicyKind::UniformCluster;
        auto camp = smallCampaign(uniform ? "core_sweep" : "core_sweep_2p");
        camp.workloads = {"twolf"};
        camp.policies = {"rsr40"};
        camp.clusters = 12;
        camp.sampling.kind = kind;
        camp.livepointDir = camp.outDir + "/stores";
        std::remove((camp.livepointDir + "/twolf-rsr40.lvpt").c_str());

        std::vector<std::string> store_hashes;
        std::vector<std::vector<std::uint64_t>> starts;
        std::vector<double> direct_ipc;
        for (const char *rob : {"core.rob_size=64", "core.rob_size=16"}) {
            auto job = camp;
            job.outDir += std::string("_") + rob;
            core::applyMachineSetting(job.machine, rob);
            std::remove(
                harness::CampaignRunner::manifestPath(job.outDir).c_str());
            harness::CampaignRunner runner(job);
            ASSERT_TRUE(runner.run().allComplete()) << rob;
            const auto bytes = slurpFile(job.outDir + "/job-0.json");
            const std::string text(bytes.begin(), bytes.end());

            core::SampledConfig cfg;
            cfg.totalInsts = job.insts;
            cfg.regimen = {job.clusters, job.clusterSize};
            cfg.scheduleSeed = job.seed;
            cfg.machine = job.machine;
            const auto direct =
                harness::runEstimator(prog, "rsr40", cfg, job.sampling, 1);
            EXPECT_EQ(estimateFields(text),
                      estimateFields(
                          harness::JsonWriter()
                              .put("ipc", direct.sampled.estimate.mean)
                              .put("ci_low", direct.sampled.estimate.ciLow)
                              .put("ci_high", direct.sampled.estimate.ciHigh)
                              .put("aggregate_ipc",
                                   direct.sampled.aggregateIpc())
                              .put("clusters",
                                   static_cast<std::uint64_t>(
                                       direct.sampled.clusterIpc.size()))
                              .str()))
                << uniform << " " << rob;
            store_hashes.push_back(
                harness::parseJsonObject(text).at("store_hash"));
            starts.emplace_back();
            for (const auto &cluster : direct.schedule)
                starts.back().push_back(cluster.start);
            direct_ipc.push_back(direct.sampled.estimate.mean);
        }
        EXPECT_NE(direct_ipc[0], direct_ipc[1]) << uniform;
        if (uniform) {
            EXPECT_EQ(store_hashes[0], store_hashes[1]);
        } else {
            EXPECT_NE(starts[0], starts[1]);
            EXPECT_NE(store_hashes[0], store_hashes[1]);
        }
    }
}

TEST(Robustness, CampaignRecapturesUnreadableLivePointStore)
{
    // A store this build cannot open (an older index version, damaged
    // bytes) is stale: campaign --livepoints recaptures it instead of
    // failing the job.
    auto camp = smallCampaign("unreadable_store");
    camp.workloads = {"twolf"};
    camp.policies = {"smarts"};
    camp.livepointDir = camp.outDir + "/stores";
    makeDirs(camp.livepointDir);
    const std::string store = camp.livepointDir + "/twolf-smarts.lvpt";
    spillFile(store, std::vector<std::uint8_t>(64, 0xab));
    ASSERT_THROW(core::LivePointStore::loadFile(store), CorruptInputError);

    harness::CampaignRunner runner(camp);
    ASSERT_TRUE(runner.run().allComplete());
    EXPECT_NO_THROW(core::LivePointStore::loadFile(store));
}

TEST(Robustness, FaultInjectorIsDeterministicPerSeed)
{
    FaultConfig fc;
    fc.seed = 42;
    fc.ioFailProb = 0.5;
    std::vector<bool> a, b;
    {
        ScopedFaultInjection guard(fc);
        for (int i = 0; i < 64; ++i)
            a.push_back(FaultInjector::global().shouldFailIo("site:x"));
    }
    {
        ScopedFaultInjection guard(fc);
        for (int i = 0; i < 64; ++i)
            b.push_back(FaultInjector::global().shouldFailIo("site:x"));
    }
    EXPECT_EQ(a, b);
    EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
    EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

} // namespace
} // namespace rsr
