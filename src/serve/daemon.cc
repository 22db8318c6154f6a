#include "daemon.hh"

#include <atomic>
#include <utility>

#include "core/machine.hh"
#include "core/warmup.hh"
#include "harness/json.hh"
#include "harness/parallel_run.hh"
#include "util/checksum.hh"
#include "util/error.hh"
#include "workload/synthetic.hh"

namespace rsr::serve
{

namespace
{

/** Accept-loop poll slice: drain requests are honoured within this. */
constexpr int kAcceptSliceMs = 100;
/** Deadline for control-plane replies sent from the accept loop. */
constexpr double kInlineReplySec = 1.0;

/** Append `"cached":<bool>` to a stored result-JSON object. */
std::string
withCachedFlag(const std::string &result_json, bool cached)
{
    std::string out = result_json;
    out.pop_back(); // the closing '}'
    out += cached ? ",\"cached\":true}" : ",\"cached\":false}";
    return out;
}

} // namespace

std::string
ServeStats::json() const
{
    harness::JsonWriter w;
    w.put("accepted", accepted)
        .put("completed", completed)
        .put("failed", failed)
        .put("cache_hits", cacheHits)
        .put("warm_replays", warmReplays)
        .put("cold_captures", coldCaptures)
        .put("shed_busy", shedBusy)
        .put("shed_overload", shedOverload)
        .put("shed_draining", shedDraining)
        .put("retries", retries)
        .put("deadline_exceeded", deadlineExceeded)
        .put("protocol_errors", protocolErrors)
        .put("journal_resumed", journalResumed)
        .put("queue_depth", queueDepth)
        .put("inflight", inflight)
        .put("result_cache_entries", resultCacheEntries)
        .put("result_cache_bytes", resultCacheBytes)
        .put("store_cache_entries", storeCacheEntries)
        .put("store_cache_bytes", storeCacheBytes)
        .putBool("draining", draining);
    return w.str();
}

/** Monotonic counters; workers bump them lock-free. */
struct Server::Counters
{
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> cacheHits{0};
    std::atomic<std::uint64_t> warmReplays{0};
    std::atomic<std::uint64_t> coldCaptures{0};
    std::atomic<std::uint64_t> shedBusy{0};
    std::atomic<std::uint64_t> shedOverload{0};
    std::atomic<std::uint64_t> shedDraining{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> deadlineExceeded{0};
    std::atomic<std::uint64_t> protocolErrors{0};
    std::atomic<std::uint64_t> journalResumed{0};
};

Server::Server(ServeConfig config)
    : config_(std::move(config)),
      results_(config_.resultCacheBytes),
      stores_(config_.storeCacheBytes),
      counters_(new Counters)
{}

Server::~Server() = default;

void
Server::start()
{
    if (started_)
        rsr_throw_internal("Server::start() called twice");
    started_ = true;

    if (config_.faults.enabled())
        faultGuard_ =
            std::make_unique<ScopedFaultInjection>(config_.faults);

    listen_ = listenOn(config_.port);
    wake_ = makeWakePipe();
    pool_ = std::make_unique<harness::ThreadPool>(config_.threads);

    if (!config_.journalPath.empty()) {
        // Resume first: requests a previous daemon admitted but never
        // finished (drain or crash) are re-executed into the cache.
        JournalState state = loadJournal(config_.journalPath);
        nextRequestId_.store(state.nextId);
        journal_ = std::make_unique<RequestJournal>(config_.journalPath);
        for (auto &[id, request] : state.backlog) {
            queued_.fetch_add(1);
            // Weighted by requested instruction count so the pool's
            // least-loaded placement spreads heavy backlog entries
            // across lanes before live connections start arriving.
            const std::uint64_t weight = request.insts;
            pool_->submit(
                [this, id = id, request = request]() {
                    queued_.fetch_sub(1);
                    inflight_.fetch_add(1);
                    runBacklog(id, request);
                    inflight_.fetch_sub(1);
                },
                weight);
        }
    }
}

int
Server::wakeFd() const
{
    return wake_.writeEnd.fd();
}

void
Server::requestDrain()
{
    draining_.store(true);
    notifyWakePipe(wake_.writeEnd.fd());
}

ServeStats
Server::stats() const
{
    ServeStats s;
    s.accepted = counters_->accepted.load();
    s.completed = counters_->completed.load();
    s.failed = counters_->failed.load();
    s.cacheHits = counters_->cacheHits.load();
    s.warmReplays = counters_->warmReplays.load();
    s.coldCaptures = counters_->coldCaptures.load();
    s.shedBusy = counters_->shedBusy.load();
    s.shedOverload = counters_->shedOverload.load();
    s.shedDraining = counters_->shedDraining.load();
    s.retries = counters_->retries.load();
    s.deadlineExceeded = counters_->deadlineExceeded.load();
    s.protocolErrors = counters_->protocolErrors.load();
    s.journalResumed = counters_->journalResumed.load();
    s.queueDepth = queued_.load();
    s.inflight = inflight_.load();
    s.resultCacheEntries = results_.entries();
    s.resultCacheBytes = results_.bytes();
    s.storeCacheEntries = stores_.entries();
    s.storeCacheBytes = stores_.bytes();
    s.draining = draining_.load();
    return s;
}

void
Server::serve()
{
    if (!started_)
        rsr_throw_internal("Server::serve() before start()");

    while (!draining_.load()) {
        const WaitResult wr = waitAcceptable(
            listen_.fd(), wake_.readEnd.fd(), kAcceptSliceMs);
        if (wr == WaitResult::Woken) {
            drainWakePipe(wake_.readEnd.fd());
            draining_.store(true);
            break;
        }
        if (wr == WaitResult::Timeout)
            continue;

        Socket conn = acceptConnection(listen_.fd());
        if (!conn.valid())
            continue;
        counters_->accepted.fetch_add(1);

        // Admission control: a full queue gets an immediate typed BUSY
        // with a retry-after hint instead of unbounded buffering.
        const std::uint64_t depth = queued_.load() + inflight_.load();
        if (depth >= config_.queueCapacity) {
            counters_->shedBusy.fetch_add(1);
            replyBusy(conn.fd(), 0, "queue-full", depth);
            continue; // conn closes here
        }

        queued_.fetch_add(1);
        const int fd = conn.release();
        pool_->submit([this, fd]() {
            queued_.fetch_sub(1);
            inflight_.fetch_add(1);
            handleConnection(fd);
            inflight_.fetch_sub(1);
        });
    }

    // Graceful drain: stop accepting, let in-flight work finish. Queued
    // SimRequests observe draining_ and are journaled + answered BUSY,
    // so a restarted daemon resumes them.
    listen_.closeNow();
    pool_->wait();
}

void
Server::sendBestEffort(int fd, const Frame &frame)
{
    try {
        const Deadline deadline(kInlineReplySec);
        sendFrame(fd, frame, deadline);
    } catch (const SimError &) {
        // The peer is gone or stalled; nothing useful left to do.
    }
}

void
Server::replyBusy(int fd, std::uint64_t request_id, const char *reason,
                  std::uint64_t queue_depth)
{
    harness::JsonWriter w;
    w.put("retry_after_ms", 100 * (queue_depth + 1))
        .put("queue_depth", queue_depth)
        .put("shed", reason);
    sendBestEffort(fd, textFrame(FrameType::Busy, request_id, w.str()));
}

void
Server::replyError(int fd, std::uint64_t request_id, ErrorKind kind,
                   const std::string &message, bool retryable)
{
    harness::JsonWriter w;
    w.put("error_kind", errorKindName(kind))
        .put("message", message)
        .putBool("retryable", retryable);
    sendBestEffort(fd, textFrame(FrameType::Error, request_id, w.str()));
}

void
Server::handleConnection(int fd)
{
    Socket conn(fd);
    std::uint64_t last_request_id = 0;
    try {
        while (true) {
            // Fresh per-frame I/O deadline: a slow-loris peer costs one
            // worker at most this long.
            const Deadline io(config_.ioDeadlineSec);
            Frame frame;
            if (!recvFrame(conn.fd(), io, frame))
                return; // clean hang-up between frames
            last_request_id = frame.requestId;

            switch (frame.type) {
              case FrameType::Ping:
                sendFrame(conn.fd(),
                          textFrame(FrameType::Pong, frame.requestId, ""),
                          io);
                break;
              case FrameType::StatsRequest:
                sendFrame(conn.fd(),
                          textFrame(FrameType::StatsResponse,
                                    frame.requestId, stats().json()),
                          io);
                break;
              case FrameType::Drain:
                sendFrame(conn.fd(),
                          textFrame(FrameType::Ack, frame.requestId, ""),
                          io);
                requestDrain();
                return;
              case FrameType::SimRequest:
                handleSimRequest(conn.fd(), frame);
                break;
              default:
                counters_->protocolErrors.fetch_add(1);
                replyError(conn.fd(), frame.requestId,
                           ErrorKind::CorruptInput,
                           std::string("unexpected frame type ") +
                               frameTypeName(frame.type),
                           false);
                return;
            }
        }
    } catch (const SimError &e) {
        // Typed failure: answer it (best effort) and drop the
        // connection. The daemon itself never dies on peer behaviour.
        if (e.kind() == ErrorKind::CorruptInput)
            counters_->protocolErrors.fetch_add(1);
        else if (e.kind() == ErrorKind::Timeout)
            counters_->deadlineExceeded.fetch_add(1);
        replyError(conn.fd(), last_request_id, e.kind(), e.what(),
                   e.retryable());
    } catch (const std::exception &e) {
        counters_->protocolErrors.fetch_add(1);
        replyError(conn.fd(), last_request_id,
                   ErrorKind::InternalInvariant, e.what(), false);
    }
}

void
Server::handleSimRequest(int fd, const Frame &frame)
{
    const SimRequest request = decodeSimRequest(frame.payload);
    const std::uint64_t request_hash = request.requestHash();

    // Fast path: a repeated request never touches the simulator.
    if (const auto cached = results_.get(request_hash)) {
        counters_->cacheHits.fetch_add(1);
        counters_->completed.fetch_add(1);
        const Deadline io(config_.ioDeadlineSec);
        sendFrame(fd,
                  textFrame(FrameType::SimResponse, frame.requestId,
                            withCachedFlag(*cached, true)),
                  io);
        return;
    }

    const auto fail = [&](std::uint64_t id, const SimError &e) {
        if (journal_)
            journal_->append(id, RequestStatus::Failed, request);
        counters_->failed.fetch_add(1);
        if (e.kind() == ErrorKind::Timeout)
            counters_->deadlineExceeded.fetch_add(1);
        replyError(fd, frame.requestId, e.kind(), e.what(),
                   e.retryable());
    };

    // Resolve the request's run once: its capture key decides shedding
    // below and names the store execute() replays. A machine that does
    // not resolve fails here, before it is queued.
    core::SampledConfig run;
    std::uint64_t capture_key = 0;
    try {
        run = request.sampledConfig();
        capture_key = core::LivePointStore::configHash(
            request.workload, request.policy, run);
    } catch (const UserError &e) {
        fail(nextRequestId_.fetch_add(1), e);
        return;
    }
    const bool warm_possible = stores_.get(capture_key) != nullptr;

    if (draining_.load()) {
        // Journal the request so the restarted daemon picks it up, then
        // tell the client to come back.
        counters_->shedDraining.fetch_add(1);
        if (journal_) {
            const std::uint64_t id = nextRequestId_.fetch_add(1);
            journal_->append(id, RequestStatus::Queued, request);
        }
        replyBusy(fd, frame.requestId, "draining",
                  queued_.load() + inflight_.load());
        return;
    }

    // Graceful degradation: above the shed mark, cold captures (the
    // expensive work) are turned away while cache hits and warm replays
    // keep flowing.
    const std::uint64_t depth = queued_.load() + inflight_.load();
    const auto shed_mark = static_cast<std::uint64_t>(
        config_.shedFillFraction *
        static_cast<double>(config_.queueCapacity));
    if (!warm_possible && depth >= shed_mark) {
        counters_->shedOverload.fetch_add(1);
        replyBusy(fd, frame.requestId, "overload-cold", depth);
        return;
    }

    const std::uint64_t id = nextRequestId_.fetch_add(1);
    if (journal_)
        journal_->append(id, RequestStatus::Queued, request);

    try {
        bool warm = false;
        bool cold = false;
        const std::string result =
            executeWithRetry(request, run, capture_key, &warm, &cold);
        if (journal_)
            journal_->append(id, RequestStatus::Done, request);
        results_.put(request_hash,
                     std::make_shared<const std::string>(result),
                     result.size());
        counters_->completed.fetch_add(1);
        const Deadline io(config_.ioDeadlineSec);
        sendFrame(fd,
                  textFrame(FrameType::SimResponse, frame.requestId,
                            withCachedFlag(result, false)),
                  io);
    } catch (const SimError &e) {
        fail(id, e);
    }
}

std::string
Server::executeWithRetry(const SimRequest &request,
                         const core::SampledConfig &run,
                         std::uint64_t capture_key, bool *warm_reuse,
                         bool *cold_capture)
{
    return retryTransient(
        config_.maxRetries, config_.backoffMs,
        [this] {
            counters_->retries.fetch_add(1);
            return true;
        },
        [&] {
            return execute(request, run, capture_key, warm_reuse,
                           cold_capture);
        });
}

std::string
Server::execute(const SimRequest &request, const core::SampledConfig &run,
                std::uint64_t capture_key, bool *warm_reuse,
                bool *cold_capture)
{
    *warm_reuse = false;
    *cold_capture = false;

    // Per-request watchdog: a wedged capture is cancelled cooperatively
    // at the next cluster boundary instead of pinning a worker forever.
    const double deadline_sec =
        request.deadlineMs > 0 ? request.deadlineMs / 1e3
                               : config_.requestDeadlineSec;
    const Deadline deadline(deadline_sec);

    std::shared_ptr<const core::LivePointStore> store =
        stores_.get(capture_key);
    if (store) {
        *warm_reuse = true;
        counters_->warmReplays.fetch_add(1);
    } else {
        // Cold path: run the expensive functional front half once and
        // cache the warmed live-point store for every future request
        // whose machine differs only in timing (`core.*`) fields.
        *cold_capture = true;
        const auto program = workload::buildSynthetic(
            workload::standardWorkloadParams(request.workload));
        const auto policy = core::makePolicyByName(request.policy);
        core::SampledConfig cfg = run;
        cfg.deadline = &deadline;
        auto created = std::make_shared<core::LivePointStore>(
            core::LivePointStore::create(program, *policy, cfg,
                                         request.workload,
                                         request.policy));
        counters_->coldCaptures.fetch_add(1);
        stores_.put(capture_key, created, created->serialize().size());
        store = std::move(created);
    }

    const core::SampledResult result =
        harness::replayStoreParallel(*store, run.machine, 1);

    harness::JsonWriter w;
    w.put("request_hash", checksumHex(request.requestHash()))
        .put("workload", request.workload)
        .put("policy", request.policy)
        .put("ipc", result.estimate.mean)
        .put("ci_low", result.estimate.ciLow)
        .put("ci_high", result.estimate.ciHigh)
        .put("aggregate_ipc", result.aggregateIpc())
        .put("clusters",
             static_cast<std::uint64_t>(result.clusterIpc.size()))
        .put("seconds", result.seconds)
        .putBool("warm", *warm_reuse);
    return w.str();
}

void
Server::runBacklog(std::uint64_t id, const SimRequest &request)
{
    try {
        bool warm = false;
        bool cold = false;
        const core::SampledConfig run = request.sampledConfig();
        const std::string result = executeWithRetry(
            request, run,
            core::LivePointStore::configHash(request.workload,
                                             request.policy, run),
            &warm, &cold);
        if (journal_)
            journal_->append(id, RequestStatus::Done, request);
        results_.put(request.requestHash(),
                     std::make_shared<const std::string>(result),
                     result.size());
        counters_->journalResumed.fetch_add(1);
        counters_->completed.fetch_add(1);
    } catch (const std::exception &) {
        if (journal_)
            journal_->append(id, RequestStatus::Failed, request);
        counters_->failed.fetch_add(1);
    }
}

} // namespace rsr::serve
