/**
 * @file
 * Tests for the serve subsystem, bottom up:
 *
 *   ServeProtocol — defensive frame/request codecs: fuzz-style negative
 *     paths (truncation at every boundary, bit flips, version skew,
 *     oversized lengths, trailing garbage) must throw CorruptInputError,
 *     never InternalError and never death.
 *   ServeCache    — byte-budgeted LRU semantics.
 *   ServeJournal  — crash-safe request journal: torn-line repair,
 *     hash-verified loads, backlog recovery.
 *   ServeNetIo    — deadline-capped socket I/O failure taxonomy
 *     (clean EOF vs torn frame vs slow loris vs injected tear).
 *   ServeDaemon   — a live in-process daemon: caching tiers, typed
 *     errors that leave it alive, backpressure, overload shedding,
 *     deadlines with retry, and drain/resume through the journal.
 *
 * ServeNetIo and ServeDaemon run in the integration tier (they bind
 * real sockets and wait on real timeouts); the rest are unit tier.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/stats_report.hh"
#include "core/warmup.hh"
#include "harness/campaign.hh"
#include "harness/json.hh"
#include "harness/parallel_run.hh"
#include "serve/cache.hh"
#include "serve/daemon.hh"
#include "serve/journal.hh"
#include "serve/net_io.hh"
#include "serve/protocol.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "workload/synthetic.hh"

namespace rsr::serve
{
namespace
{

/** A small but real simulation request (sub-second on one core). */
SimRequest
tinyRequest(std::uint64_t seed = 0x5eed)
{
    SimRequest req;
    req.workload = "twolf";
    req.policy = "none";
    req.insts = 40'000;
    req.clusters = 2;
    req.clusterSize = 300;
    req.seed = seed;
    return req;
}

void
sleepMs(int ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// ---------------------------------------------------------------------
// ServeProtocol — codec round trips and fuzz-style negative paths.
// ---------------------------------------------------------------------

TEST(ServeProtocol, FrameRoundTrip)
{
    const Frame frame =
        textFrame(FrameType::SimResponse, 42, "{\"ipc\":1.5}");
    const Frame back = decodeFrame(encodeFrame(frame));
    EXPECT_EQ(back.type, FrameType::SimResponse);
    EXPECT_EQ(back.requestId, 42u);
    EXPECT_EQ(back.payloadText(), "{\"ipc\":1.5}");

    // Empty payload round-trips too.
    const Frame ping = decodeFrame(encodeFrame(Frame{}));
    EXPECT_EQ(ping.type, FrameType::Ping);
    EXPECT_TRUE(ping.payload.empty());
}

TEST(ServeProtocol, TruncationAtEveryBoundaryIsCorrupt)
{
    const auto bytes =
        encodeFrame(textFrame(FrameType::SimResponse, 7, "payload"));
    ASSERT_GT(bytes.size(), kHeaderBytes);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + len);
        EXPECT_THROW(decodeFrame(prefix), CorruptInputError)
            << "prefix of " << len << " bytes was accepted";
    }
}

TEST(ServeProtocol, EveryBitFlipIsDetected)
{
    // The checksum covers the header prefix and the payload, so a
    // single-bit flip anywhere in the frame — magic, version, type,
    // requestId, length, checksum itself, payload — must be caught.
    const Frame frame = textFrame(FrameType::SimResponse, 7, "payload");
    const auto bytes = encodeFrame(frame);
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
        for (const std::uint8_t mask : {0x01, 0x80}) {
            auto damaged = bytes;
            damaged[pos] ^= mask;
            EXPECT_THROW(decodeFrame(damaged), CorruptInputError)
                << "flip at byte " << pos << " was accepted";
        }
    }
}

TEST(ServeProtocol, VersionSkewIsCorrupt)
{
    auto bytes = encodeFrame(Frame{});
    bytes[4] = kProtocolVersion + 1;
    EXPECT_THROW(decodeFrame(bytes), CorruptInputError);
}

TEST(ServeProtocol, OversizedLengthRejectedBeforeAllocation)
{
    // A hostile header advertising a 256 MiB payload must be rejected
    // by header validation alone — no allocation, no waiting for bytes.
    auto bytes = encodeFrame(Frame{});
    const std::uint32_t huge = kMaxPayload + 1;
    for (int i = 0; i < 4; ++i)
        bytes[16 + i] =
            static_cast<std::uint8_t>((huge >> (8 * i)) & 0xFF);
    EXPECT_THROW(validateHeader(bytes.data()), CorruptInputError);
    EXPECT_THROW(decodeFrame(bytes), CorruptInputError);
}

TEST(ServeProtocol, TrailingGarbageIsCorrupt)
{
    auto bytes = encodeFrame(textFrame(FrameType::Pong, 1, "ok"));
    bytes.push_back(0xAB);
    EXPECT_THROW(decodeFrame(bytes), CorruptInputError);
}

TEST(ServeProtocol, SimRequestRoundTripAndCanonicalOrder)
{
    SimRequest req = tinyRequest();
    req.machineKind = "paper";
    req.overrides = {"core.rob_size=64", "bp.tables=4096",
                     "core.width=2"};
    req.deadlineMs = 1500;
    const SimRequest back = decodeSimRequest(encodeSimRequest(req));
    EXPECT_EQ(back.workload, "twolf");
    EXPECT_EQ(back.machineKind, "paper");
    EXPECT_EQ(back.deadlineMs, 1500u);
    // encode canonicalizes: sorted override order survives the trip.
    const std::vector<std::string> want = {
        "bp.tables=4096", "core.rob_size=64", "core.width=2"};
    EXPECT_EQ(back.overrides, want);

    // Hashes are canonical-order-sensitive; both codecs canonicalize.
    SimRequest canon = req;
    canon.canonicalize();
    const SimRequest json_back = simRequestFromJson(simRequestJson(req));
    EXPECT_EQ(json_back.requestHash(), canon.requestHash());
    EXPECT_EQ(back.requestHash(), canon.requestHash());
}

TEST(ServeProtocol, RequestHashIgnoresDeadlineOnly)
{
    SimRequest a = tinyRequest();
    SimRequest b = a;
    b.deadlineMs = 9999;
    EXPECT_EQ(a.requestHash(), b.requestHash());

    SimRequest c = a;
    c.seed += 1;
    EXPECT_NE(a.requestHash(), c.requestHash());
}

TEST(ServeProtocol, CaptureHashSharedAcrossTimingOverrides)
{
    // The store-cache key is the capture key of the request's run:
    // timing (`core.*`) overrides leave it alone, geometry changes it.
    const auto capture_key = [](const SimRequest &r) {
        return core::LivePointStore::configHash(r.workload, r.policy,
                                                r.sampledConfig());
    };
    SimRequest base = tinyRequest();
    base.overrides = {"bp.pht_entries=4096"};
    base.canonicalize();

    SimRequest timing = base;
    timing.overrides.push_back("core.rob_size=32");
    timing.canonicalize();

    // Different results, one shared capture.
    EXPECT_NE(base.requestHash(), timing.requestHash());
    EXPECT_EQ(capture_key(base), capture_key(timing));

    SimRequest geometry = base;
    geometry.overrides.push_back("dl1.size_bytes=16384");
    geometry.canonicalize();
    EXPECT_NE(capture_key(base), capture_key(geometry));

    const std::vector<std::string> timing_only = {"core.rob_size=32"};
    const std::vector<std::string> capture_only = {"bp.pht_entries=4096"};
    EXPECT_EQ(timing.timingOverrides(), timing_only);
    EXPECT_EQ(timing.captureOverrides(), capture_only);
}

TEST(ServeProtocol, SimRequestPayloadFuzzNeverInternal)
{
    // Truncate a valid payload at every boundary, then throw seeded
    // garbage at the decoder: every rejection must be the typed
    // CorruptInputError (an InternalError would mean the decoder
    // trusted hostile bytes).
    const auto payload = encodeSimRequest(tinyRequest());
    for (std::size_t len = 0; len < payload.size(); ++len) {
        const std::vector<std::uint8_t> prefix(payload.begin(),
                                               payload.begin() + len);
        try {
            (void)decodeSimRequest(prefix);
        } catch (const CorruptInputError &) {
        }
    }

    std::uint64_t state = 0x5eed5eed5eed5eedull;
    const auto next = [&state]() {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::uint8_t>(state >> 56);
    };
    for (int round = 0; round < 200; ++round) {
        std::vector<std::uint8_t> garbage(next() % 96);
        for (auto &b : garbage)
            b = next();
        try {
            (void)decodeSimRequest(garbage);
        } catch (const CorruptInputError &) {
        }
        // Anything else (InternalError, bad_alloc, death) fails the test.
    }
}

// ---------------------------------------------------------------------
// ServeCache — byte-budgeted LRU.
// ---------------------------------------------------------------------

TEST(ServeCache, EvictsLeastRecentlyUsedWithinBudget)
{
    LruCache<std::string> cache(100);
    for (std::uint64_t k = 0; k < 4; ++k)
        cache.put(k, std::make_shared<const std::string>("v"), 30);
    // 4 * 30 > 100: key 0 (the oldest) was evicted.
    EXPECT_EQ(cache.entries(), 3u);
    EXPECT_EQ(cache.bytes(), 90u);
    EXPECT_EQ(cache.get(0), nullptr);
    ASSERT_NE(cache.get(1), nullptr);
}

TEST(ServeCache, GetRefreshesRecency)
{
    LruCache<std::string> cache(100);
    for (std::uint64_t k = 0; k < 3; ++k)
        cache.put(k, std::make_shared<const std::string>("v"), 30);
    ASSERT_NE(cache.get(0), nullptr); // key 0 is now most recent
    cache.put(3, std::make_shared<const std::string>("v"), 30);
    EXPECT_NE(cache.get(0), nullptr);
    EXPECT_EQ(cache.get(1), nullptr); // key 1 took the eviction instead
}

TEST(ServeCache, OversizedValueIsSkippedAndReplaceRecharges)
{
    LruCache<std::string> cache(100);
    cache.put(1, std::make_shared<const std::string>("huge"), 101);
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.get(1), nullptr);

    cache.put(2, std::make_shared<const std::string>("a"), 40);
    cache.put(2, std::make_shared<const std::string>("b"), 60);
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.bytes(), 60u);
    EXPECT_EQ(*cache.get(2), "b");
}

// ---------------------------------------------------------------------
// ServeJournal — crash-safe request journal.
// ---------------------------------------------------------------------

std::string
journalPath(const char *tag)
{
    const std::string path = std::string(::testing::TempDir()) +
                             "/rsr_serve_journal_" + tag + ".jsonl";
    std::remove(path.c_str());
    return path;
}

TEST(ServeJournal, BacklogKeepsOnlyUnfinishedRequests)
{
    const std::string path = journalPath("backlog");
    const SimRequest a = tinyRequest(1);
    const SimRequest b = tinyRequest(2);
    const SimRequest c = tinyRequest(3);
    {
        RequestJournal journal(path);
        journal.append(0, RequestStatus::Queued, a);
        journal.append(1, RequestStatus::Queued, b);
        journal.append(2, RequestStatus::Queued, c);
        journal.append(1, RequestStatus::Done, b);
        journal.append(2, RequestStatus::Failed, c);
    }
    const JournalState state = loadJournal(path);
    ASSERT_EQ(state.backlog.size(), 1u);
    EXPECT_EQ(state.backlog[0].first, 0u);
    EXPECT_EQ(state.backlog[0].second.requestHash(), a.requestHash());
    EXPECT_EQ(state.nextId, 3u);
    EXPECT_EQ(state.droppedLines, 0u);
}

TEST(ServeJournal, TornTrailingLineDroppedAndRepaired)
{
    const std::string path = journalPath("torn");
    {
        RequestJournal journal(path);
        journal.append(0, RequestStatus::Queued, tinyRequest(1));
        journal.append(0, RequestStatus::Done, tinyRequest(1));
        journal.append(1, RequestStatus::Queued, tinyRequest(2));
    }
    { // Crash mid-append: a torn, unterminated trailing line.
        std::ofstream out(path, std::ios::app);
        out << "{\"workload\":\"tw";
    }
    const JournalState state = loadJournal(path);
    EXPECT_EQ(state.droppedLines, 1u);
    ASSERT_EQ(state.backlog.size(), 1u);
    EXPECT_EQ(state.backlog[0].first, 1u);

    // Reopening for append repairs the tear so new lines stay parsable.
    {
        RequestJournal journal(path);
        journal.append(1, RequestStatus::Done, tinyRequest(2));
    }
    const JournalState repaired = loadJournal(path);
    EXPECT_EQ(repaired.droppedLines, 0u);
    EXPECT_TRUE(repaired.backlog.empty());
}

TEST(ServeJournal, HashMismatchLineIsDropped)
{
    const std::string path = journalPath("hash");
    {
        RequestJournal journal(path);
        journal.append(0, RequestStatus::Queued, tinyRequest(1));
    }
    // Flip the recorded workload: the stored request_hash no longer
    // matches the recomputed one, so the line is untrustworthy.
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    in.close();
    const auto at = line.find("twolf");
    ASSERT_NE(at, std::string::npos);
    line.replace(at, 5, "twolg");
    std::ofstream(path) << line << "\n";

    const JournalState state = loadJournal(path);
    EXPECT_TRUE(state.backlog.empty());
    EXPECT_EQ(state.droppedLines, 1u);
}

// ---------------------------------------------------------------------
// ServeNetIo — deadline-capped sockets and the failure taxonomy.
// Integration tier: binds real sockets, waits on real timeouts.
// ---------------------------------------------------------------------

/** A connected (client, server) socket pair on the loopback. */
struct LocalPair
{
    Socket listen;
    Socket client;
    Socket server;
};

LocalPair
makeLocalPair()
{
    LocalPair pair;
    std::uint16_t port = 0;
    pair.listen = listenOn(port);
    const Deadline deadline(10.0);
    pair.client = connectTo(port, deadline);
    EXPECT_EQ(waitAcceptable(pair.listen.fd(), -1, 5000),
              WaitResult::Acceptable);
    pair.server = acceptConnection(pair.listen.fd());
    EXPECT_TRUE(pair.server.valid());
    return pair;
}

TEST(ServeNetIo, FrameRoundTripOverSocket)
{
    LocalPair pair = makeLocalPair();
    const Deadline deadline(10.0);
    sendFrame(pair.client.fd(),
              textFrame(FrameType::SimRequest, 5, "hello"), deadline);
    Frame got;
    ASSERT_TRUE(recvFrame(pair.server.fd(), deadline, got));
    EXPECT_EQ(got.type, FrameType::SimRequest);
    EXPECT_EQ(got.requestId, 5u);
    EXPECT_EQ(got.payloadText(), "hello");
}

TEST(ServeNetIo, CleanEofReturnsFalse)
{
    LocalPair pair = makeLocalPair();
    pair.client.closeNow();
    Frame got;
    EXPECT_FALSE(recvFrame(pair.server.fd(), Deadline(5.0), got));
}

TEST(ServeNetIo, MidFrameHangupIsCorruptInput)
{
    LocalPair pair = makeLocalPair();
    const auto bytes = encodeFrame(Frame{});
    ASSERT_EQ(::send(pair.client.fd(), bytes.data(), 10, MSG_NOSIGNAL),
              10);
    pair.client.closeNow();
    Frame got;
    EXPECT_THROW(recvFrame(pair.server.fd(), Deadline(5.0), got),
                 CorruptInputError);
}

TEST(ServeNetIo, SlowLorisStallIsTimeout)
{
    LocalPair pair = makeLocalPair();
    const auto bytes = encodeFrame(Frame{});
    ASSERT_EQ(::send(pair.client.fd(), bytes.data(), 10, MSG_NOSIGNAL),
              10);
    // The peer stays connected but silent: a torn read would be wrong
    // (it may still resume), so this must be the retryable Timeout.
    Frame got;
    try {
        recvFrame(pair.server.fd(), Deadline(0.2), got);
        FAIL() << "stalled peer did not time out";
    } catch (const TimeoutError &e) {
        EXPECT_TRUE(e.retryable());
    }
}

TEST(ServeNetIo, InjectedTornFrameIsTypedAndCounted)
{
    LocalPair pair = makeLocalPair();
    const Deadline deadline(10.0);
    sendFrame(pair.client.fd(), textFrame(FrameType::Ping, 1, ""),
              deadline);
    FaultConfig faults;
    faults.seed = 0xfa057;
    faults.tornFrameProb = 1.0;
    const ScopedFaultInjection guard(faults);
    Frame got;
    EXPECT_THROW(recvFrame(pair.server.fd(), deadline, got),
                 CorruptInputError);
    EXPECT_GE(FaultInjector::global().stats().tornFrames, 1u);
}

// ---------------------------------------------------------------------
// ServeDaemon — a live in-process daemon on an ephemeral port.
// ---------------------------------------------------------------------

/** Runs a Server's serve() loop on a thread; drains on destruction. */
class DaemonHarness
{
  public:
    explicit DaemonHarness(ServeConfig config)
        : server_(std::move(config))
    {
        server_.start();
        thread_ = std::thread([this] { server_.serve(); });
    }

    ~DaemonHarness() { stop(); }

    void
    stop()
    {
        if (thread_.joinable()) {
            server_.requestDrain();
            thread_.join();
        }
    }

    Server &server() { return server_; }
    std::uint16_t port() const { return server_.port(); }

  private:
    Server server_;
    std::thread thread_;
};

ServeConfig
tinyDaemonConfig()
{
    ServeConfig config;
    config.port = 0;
    config.threads = 2;
    config.backoffMs = 1;
    return config;
}

/** One-shot client exchange: connect, send, read one reply frame. */
Frame
exchange(std::uint16_t port, const Frame &frame, double timeout = 30.0)
{
    const Deadline deadline(timeout);
    Socket conn = connectTo(port, deadline);
    sendFrame(conn.fd(), frame, deadline);
    Frame reply;
    if (!recvFrame(conn.fd(), deadline, reply))
        rsr_throw_io("daemon closed the connection without a reply");
    return reply;
}

Frame
exchangeRequest(std::uint16_t port, const SimRequest &request,
                std::uint64_t id = 1)
{
    Frame frame;
    frame.type = FrameType::SimRequest;
    frame.requestId = id;
    frame.payload = encodeSimRequest(request);
    return exchange(port, frame);
}

bool
payloadHas(const Frame &frame, const std::string &needle)
{
    return frame.payloadText().find(needle) != std::string::npos;
}

TEST(ServeDaemon, PingAndStatsRoundTrip)
{
    DaemonHarness daemon(tinyDaemonConfig());
    const Frame pong = exchange(daemon.port(), Frame{});
    EXPECT_EQ(pong.type, FrameType::Pong);

    Frame stats_req;
    stats_req.type = FrameType::StatsRequest;
    stats_req.requestId = 3;
    const Frame stats = exchange(daemon.port(), stats_req);
    EXPECT_EQ(stats.type, FrameType::StatsResponse);
    EXPECT_EQ(stats.requestId, 3u);
    EXPECT_TRUE(payloadHas(stats, "\"accepted\""));
    EXPECT_TRUE(payloadHas(stats, "\"draining\":false"));
}

TEST(ServeDaemon, ColdThenCachedThenWarmReplay)
{
    DaemonHarness daemon(tinyDaemonConfig());
    const SimRequest req = tinyRequest();

    const Frame cold = exchangeRequest(daemon.port(), req);
    ASSERT_EQ(cold.type, FrameType::SimResponse)
        << cold.payloadText();
    EXPECT_TRUE(payloadHas(cold, "\"cached\":false"));
    EXPECT_TRUE(payloadHas(cold, "\"warm\":false"));

    // Identical request: answered from the result cache.
    const Frame hit = exchangeRequest(daemon.port(), req);
    ASSERT_EQ(hit.type, FrameType::SimResponse);
    EXPECT_TRUE(payloadHas(hit, "\"cached\":true"));

    // Timing-only change: new result, but the capture is reused.
    SimRequest timing = req;
    timing.overrides = {"core.rob_size=64"};
    const Frame warm = exchangeRequest(daemon.port(), timing);
    ASSERT_EQ(warm.type, FrameType::SimResponse)
        << warm.payloadText();
    EXPECT_TRUE(payloadHas(warm, "\"warm\":true"));
    EXPECT_TRUE(payloadHas(warm, "\"cached\":false"));

    const ServeStats stats = daemon.server().stats();
    EXPECT_EQ(stats.coldCaptures, 1u);
    EXPECT_EQ(stats.cacheHits, 1u);
    EXPECT_EQ(stats.warmReplays, 1u);
    EXPECT_EQ(stats.completed, 3u); // every answered request counts
    EXPECT_EQ(stats.failed, 0u);
}

TEST(RunMetrics, CampaignJobAndServeResponseCarryEveryTableName)
{
    // Every surface that reports a run reports every row of the one
    // run-metrics table, under the table's name: a campaign job with
    // and without live-point stores, and the daemon's SimResponse.
    const auto missing = [](const std::string &json) {
        const auto obj = harness::parseJsonObject(json);
        std::string out;
        for (const core::RunMetric &m : core::runMetrics({}))
            if (obj.count(m.name) == 0)
                out += std::string(" ") + m.name;
        return out;
    };
    const SimRequest req = tinyRequest();

    for (const bool livepoints : {false, true}) {
        harness::CampaignConfig camp;
        camp.outDir = std::string(::testing::TempDir()) +
                      "/rsr_run_metrics" + (livepoints ? "_lvpt" : "");
        camp.workloads = {req.workload};
        camp.policies = {req.policy};
        camp.insts = req.insts;
        camp.clusters = req.clusters;
        camp.clusterSize = req.clusterSize;
        camp.livepointDir = livepoints ? camp.outDir + "/stores" : "";
        std::remove(
            harness::CampaignRunner::manifestPath(camp.outDir).c_str());
        ASSERT_TRUE(harness::CampaignRunner(camp).run().allComplete());
        std::ifstream job(camp.outDir + "/job-0.json");
        const std::string text((std::istreambuf_iterator<char>(job)),
                               std::istreambuf_iterator<char>());
        EXPECT_EQ(missing(text), "") << "campaign, livepoints "
                                     << livepoints;
    }

    DaemonHarness daemon(tinyDaemonConfig());
    const Frame reply = exchangeRequest(daemon.port(), req);
    ASSERT_EQ(reply.type, FrameType::SimResponse) << reply.payloadText();
    EXPECT_EQ(missing(reply.payloadText()), "") << "serve";
}

TEST(ServeDaemon, MalformedFramesGetTypedErrorsAndDaemonSurvives)
{
    DaemonHarness daemon(tinyDaemonConfig());
    const Deadline deadline(10.0);

    std::vector<std::vector<std::uint8_t>> attacks;
    { // Bad magic.
        auto bytes = encodeFrame(Frame{});
        bytes[0] ^= 0xFF;
        attacks.push_back(bytes);
    }
    { // Version skew.
        auto bytes = encodeFrame(Frame{});
        bytes[4] = kProtocolVersion + 1;
        attacks.push_back(bytes);
    }
    { // Oversized payload length: must be rejected from the header
      // alone, without waiting for a megabyte that will never arrive.
        auto bytes = encodeFrame(Frame{});
        const std::uint32_t huge = kMaxPayload + 1;
        for (int i = 0; i < 4; ++i)
            bytes[16 + i] =
                static_cast<std::uint8_t>((huge >> (8 * i)) & 0xFF);
        attacks.push_back(bytes);
    }
    { // Bit-flipped payload: checksum mismatch.
        auto bytes =
            encodeFrame(textFrame(FrameType::SimRequest, 9, "xx"));
        bytes[kHeaderBytes] ^= 0x01;
        attacks.push_back(bytes);
    }
    { // Valid frame, hostile payload: a SimRequest that is not one.
        attacks.push_back(
            encodeFrame(textFrame(FrameType::SimRequest, 9, "junk")));
    }

    for (const auto &attack : attacks) {
        Socket conn = connectTo(daemon.port(), deadline);
        ASSERT_EQ(::send(conn.fd(), attack.data(), attack.size(),
                         MSG_NOSIGNAL),
                  static_cast<long>(attack.size()));
        // Best effort: the daemon answers with a typed Error frame when
        // it still can, and always closes; it must never die.
        Frame reply;
        try {
            if (recvFrame(conn.fd(), deadline, reply)) {
                EXPECT_EQ(reply.type, FrameType::Error);
                EXPECT_TRUE(payloadHas(reply, "corrupt-input"));
            }
        } catch (const SimError &) {
        }
    }

    // Torn frame: half a header, then hangup.
    {
        Socket conn = connectTo(daemon.port(), deadline);
        const auto bytes = encodeFrame(Frame{});
        ASSERT_EQ(::send(conn.fd(), bytes.data(), 10, MSG_NOSIGNAL),
                  10);
    }
    sleepMs(50);

    // Still alive, and every attack was counted as a protocol error.
    const Frame pong = exchange(daemon.port(), Frame{});
    EXPECT_EQ(pong.type, FrameType::Pong);
    EXPECT_GE(daemon.server().stats().protocolErrors, attacks.size());
    EXPECT_EQ(daemon.server().stats().failed, 0u);
}

TEST(ServeDaemon, SlowLorisCostsOneIoDeadlineThenTypedTimeout)
{
    ServeConfig config = tinyDaemonConfig();
    config.ioDeadlineSec = 0.2;
    DaemonHarness daemon(config);

    const Deadline deadline(10.0);
    Socket conn = connectTo(daemon.port(), deadline);
    const auto bytes = encodeFrame(Frame{});
    ASSERT_EQ(::send(conn.fd(), bytes.data(), 10, MSG_NOSIGNAL), 10);
    // Stay connected and silent: the worker must give up after
    // ioDeadlineSec and answer with the retryable timeout error.
    Frame reply;
    ASSERT_TRUE(recvFrame(conn.fd(), Deadline(5.0), reply));
    EXPECT_EQ(reply.type, FrameType::Error);
    EXPECT_TRUE(payloadHas(reply, "timeout"));
    EXPECT_TRUE(payloadHas(reply, "\"retryable\":true"));
    EXPECT_GE(daemon.server().stats().deadlineExceeded, 1u);

    const Frame pong = exchange(daemon.port(), Frame{});
    EXPECT_EQ(pong.type, FrameType::Pong);
}

TEST(ServeDaemon, FullQueueAnswersBusyWithRetryHint)
{
    ServeConfig config = tinyDaemonConfig();
    config.threads = 1;
    config.queueCapacity = 1;
    config.ioDeadlineSec = 5.0;
    DaemonHarness daemon(config);

    // Occupy the single slot with a silent connection, ...
    const Deadline deadline(10.0);
    Socket occupier = connectTo(daemon.port(), deadline);
    sleepMs(200);

    // ... so the next connection is refused at the door.
    Socket refused = connectTo(daemon.port(), deadline);
    Frame reply;
    ASSERT_TRUE(recvFrame(refused.fd(), Deadline(5.0), reply));
    EXPECT_EQ(reply.type, FrameType::Busy);
    EXPECT_TRUE(payloadHas(reply, "retry_after_ms"));
    EXPECT_TRUE(payloadHas(reply, "\"shed\":\"queue-full\""));
    EXPECT_GE(daemon.server().stats().shedBusy, 1u);

    occupier.closeNow();
}

TEST(ServeDaemon, OverloadShedsColdButServesCacheHits)
{
    ServeConfig config = tinyDaemonConfig();
    config.threads = 4;
    config.queueCapacity = 8;
    config.shedFillFraction = 0.25; // shed mark: depth 2
    DaemonHarness daemon(config);

    // Warm the result cache while the daemon is idle.
    const SimRequest req = tinyRequest();
    ASSERT_EQ(exchangeRequest(daemon.port(), req).type,
              FrameType::SimResponse);

    // Two silent connections push the depth to the shed mark.
    const Deadline deadline(10.0);
    Socket loris_a = connectTo(daemon.port(), deadline);
    Socket loris_b = connectTo(daemon.port(), deadline);
    sleepMs(200);

    // Cache hits keep flowing under overload...
    const Frame hit = exchangeRequest(daemon.port(), req);
    ASSERT_EQ(hit.type, FrameType::SimResponse);
    EXPECT_TRUE(payloadHas(hit, "\"cached\":true"));

    // ...while fresh capture work is shed first.
    const Frame shed =
        exchangeRequest(daemon.port(), tinyRequest(0xc01d));
    EXPECT_EQ(shed.type, FrameType::Busy);
    EXPECT_TRUE(payloadHas(shed, "\"shed\":\"overload-cold\""));
    EXPECT_GE(daemon.server().stats().shedOverload, 1u);

    loris_a.closeNow();
    loris_b.closeNow();
}

TEST(ServeDaemon, RequestDeadlineRetriesThenTypedTimeout)
{
    ServeConfig config = tinyDaemonConfig();
    config.maxRetries = 1;
    DaemonHarness daemon(config);

    // Big enough that the watchdog fires at a poll point well before
    // the run can finish (a truly tiny run completes inside 1 ms).
    SimRequest req = tinyRequest();
    req.insts = 600'000;
    req.clusters = 6;
    req.clusterSize = 2000;
    req.deadlineMs = 1;
    const Frame reply = exchangeRequest(daemon.port(), req);
    EXPECT_EQ(reply.type, FrameType::Error);
    EXPECT_TRUE(payloadHas(reply, "timeout"));

    const ServeStats stats = daemon.server().stats();
    EXPECT_GE(stats.retries, 1u); // transient → one backoff retry
    EXPECT_GE(stats.deadlineExceeded, 1u);
    EXPECT_GE(stats.failed, 1u);

    // A wedged request must not poison the daemon.
    EXPECT_EQ(exchange(daemon.port(), Frame{}).type, FrameType::Pong);
}

TEST(ServeDaemon, ReuseLatencyPoliciesAreServed)
{
    // mrrl/blrl are ordinary policies to the daemon: the reply carries
    // the direct run's estimate.
    DaemonHarness daemon(tinyDaemonConfig());
    for (const char *name : {"mrrl", "blrl"}) {
        SimRequest req = tinyRequest();
        req.policy = name;
        const Frame reply = exchangeRequest(daemon.port(), req);
        ASSERT_EQ(reply.type, FrameType::SimResponse)
            << reply.payloadText();

        core::SampledConfig cfg;
        cfg.totalInsts = req.insts;
        cfg.regimen = {req.clusters, req.clusterSize};
        cfg.scheduleSeed = req.seed;
        cfg.machine = core::MachineConfig::scaledDefault();
        const auto direct = harness::runSampledParallel(
            workload::buildSynthetic(
                workload::standardWorkloadParams(req.workload)),
            *core::makePolicyByName(name), cfg, 1);
        const std::string want =
            harness::JsonWriter().put("ipc", direct.estimate.mean).str();
        EXPECT_EQ(harness::parseJsonObject(reply.payloadText()).at("ipc"),
                  harness::parseJsonObject(want).at("ipc"))
            << name;
    }
}

TEST(ServeDaemon, ReuseLatencyProfilingHonoursRequestDeadline)
{
    // An mrrl cold capture starts with a functional profiling pass over
    // the population; the request's deadline cancels it there, with a
    // typed Timeout, instead of pinning the worker.
    DaemonHarness daemon(tinyDaemonConfig());
    SimRequest req = tinyRequest();
    req.policy = "mrrl";
    req.insts = 600'000;
    req.clusters = 6;
    req.clusterSize = 2000;
    req.deadlineMs = 1;
    const Frame reply = exchangeRequest(daemon.port(), req);
    EXPECT_EQ(reply.type, FrameType::Error);
    EXPECT_TRUE(payloadHas(reply, "timeout"));
    EXPECT_TRUE(payloadHas(reply, "reuse-latency profiling"))
        << reply.payloadText();
    EXPECT_GE(daemon.server().stats().deadlineExceeded, 1u);
    EXPECT_EQ(exchange(daemon.port(), Frame{}).type, FrameType::Pong);
}

TEST(ServeDaemon, UnresolvableMachineFailsBeforeQueueing)
{
    // A machine override the schema rejects fails the request at once:
    // a typed user error, counted and journaled as failed, never left
    // in the backlog for a restarted daemon.
    const std::string path = journalPath("bad_machine");
    ServeConfig config = tinyDaemonConfig();
    config.journalPath = path;
    {
        DaemonHarness daemon(config);
        SimRequest req = tinyRequest();
        req.overrides = {"core.no_such_field=1"};
        const Frame reply = exchangeRequest(daemon.port(), req);
        EXPECT_EQ(reply.type, FrameType::Error);
        EXPECT_TRUE(payloadHas(reply, "user-error"));
        EXPECT_TRUE(payloadHas(reply, "\"retryable\":false"));
        const ServeStats stats = daemon.server().stats();
        EXPECT_EQ(stats.failed, 1u);
        EXPECT_EQ(stats.coldCaptures, 0u);
        EXPECT_EQ(exchange(daemon.port(), Frame{}).type, FrameType::Pong);
    }
    const JournalState state = loadJournal(path);
    EXPECT_TRUE(state.backlog.empty());
    EXPECT_EQ(state.nextId, 1u);
}

TEST(ServeDaemon, UnrunnableMachineValueFailsBeforeQueueing)
{
    // A known key with a value the model cannot run (a zero-entry ROB,
    // a cache line that is not a power of two, a cache size that gives a
    // set count that is not one) is the same typed user error, naming
    // the key, before any capture starts.
    DaemonHarness daemon(tinyDaemonConfig());
    for (const std::string kv :
         {"core.rob_size=0", "dl1.line_bytes=48", "dl1.size_bytes=12288"}) {
        SimRequest req = tinyRequest();
        req.overrides = {kv};
        const Frame reply = exchangeRequest(daemon.port(), req);
        EXPECT_EQ(reply.type, FrameType::Error) << kv;
        EXPECT_TRUE(payloadHas(reply, "user-error")) << kv;
        EXPECT_TRUE(payloadHas(reply, kv.substr(0, kv.find('='))))
            << reply.payloadText();
        EXPECT_TRUE(payloadHas(reply, "\"retryable\":false")) << kv;
    }
    const ServeStats stats = daemon.server().stats();
    EXPECT_EQ(stats.failed, 3u);
    EXPECT_EQ(stats.coldCaptures, 0u);
    EXPECT_EQ(exchange(daemon.port(), Frame{}).type, FrameType::Pong);
}

TEST(ServeDaemon, UnknownWorkloadIsTypedUserErrorNotDeath)
{
    DaemonHarness daemon(tinyDaemonConfig());
    SimRequest req = tinyRequest();
    req.workload = "bogus";
    const Frame reply = exchangeRequest(daemon.port(), req);
    EXPECT_EQ(reply.type, FrameType::Error);
    EXPECT_TRUE(payloadHas(reply, "user-error"));
    EXPECT_TRUE(payloadHas(reply, "\"retryable\":false"));
    EXPECT_EQ(exchange(daemon.port(), Frame{}).type, FrameType::Pong);
}

TEST(ServeDaemon, DrainFrameStopsServeLoopAndJournalResumeWarmsCache)
{
    const std::string path = journalPath("daemon_resume");
    const SimRequest req = tinyRequest(0xd7a1);

    // A previous daemon generation crashed (or was drained) with this
    // request admitted but unfinished.
    {
        RequestJournal journal(path);
        journal.append(0, RequestStatus::Queued, req);
    }

    ServeConfig config = tinyDaemonConfig();
    config.journalPath = path;
    DaemonHarness daemon(config);

    // The restarted daemon replays the backlog into its result cache.
    bool resumed = false;
    for (int spin = 0; spin < 300 && !resumed; ++spin) {
        const ServeStats stats = daemon.server().stats();
        resumed = stats.journalResumed >= 1 && stats.completed >= 1;
        if (!resumed)
            sleepMs(100);
    }
    ASSERT_TRUE(resumed) << "journal backlog was not resumed";

    const Frame hit = exchangeRequest(daemon.port(), req);
    ASSERT_EQ(hit.type, FrameType::SimResponse);
    EXPECT_TRUE(payloadHas(hit, "\"cached\":true"));

    // The resumed request was retired in the journal.
    EXPECT_TRUE(loadJournal(path).backlog.empty());

    // A Drain frame acks, then the serve loop exits on its own.
    Frame drain;
    drain.type = FrameType::Drain;
    drain.requestId = 99;
    const Frame ack = exchange(daemon.port(), drain);
    EXPECT_EQ(ack.type, FrameType::Ack);
    daemon.stop();
    EXPECT_TRUE(daemon.server().stats().draining);
}

TEST(ServeDaemon, WakePipeByteInitiatesDrain)
{
    // The exact path a SIGTERM handler takes: one async-signal-safe
    // write to the wake pipe.
    DaemonHarness daemon(tinyDaemonConfig());
    ASSERT_EQ(exchange(daemon.port(), Frame{}).type, FrameType::Pong);
    notifyWakePipe(daemon.server().wakeFd());
    daemon.stop(); // joins promptly because the loop saw the wake byte
    EXPECT_TRUE(daemon.server().stats().draining);
}

TEST(ServeDaemon, SurvivesSeededProtocolFaultStorm)
{
    // Torn-frame injection armed inside the daemon: some exchanges
    // fail with typed errors (on either side — the injector is
    // process-wide), but the daemon itself must survive the storm and
    // still answer cleanly once the faults are disarmed.
    ServeConfig config = tinyDaemonConfig();
    config.faults.seed = 0x5708;
    config.faults.tornFrameProb = 0.4;
    std::uint64_t served = 0;
    {
        DaemonHarness daemon(config);
        for (int round = 0; round < 20; ++round) {
            try {
                const Frame reply = exchange(daemon.port(), Frame{});
                if (reply.type == FrameType::Pong)
                    ++served;
            } catch (const SimError &) {
                // Typed failure — acceptable under injected faults.
            }
        }
        EXPECT_GE(FaultInjector::global().stats().tornFrames, 1u);
        daemon.stop();
        EXPECT_TRUE(daemon.server().stats().draining);
    }
    // Faults disarm with the daemon; the storm never killed anything.
    EXPECT_FALSE(FaultInjector::global().armed());
    EXPECT_GE(served, 1u);
}

} // namespace
} // namespace rsr::serve
