/**
 * @file
 * The `rsr_sim serve` daemon: a long-running simulation service that
 * accepts SimRequest frames over the serve protocol, admits them into a
 * bounded queue with explicit backpressure, schedules them on the
 * harness ThreadPool, and answers from a content-addressed result /
 * live-point cache wherever it can.
 *
 * Robustness contract (docs/SERVE.md has the full failure-mode table):
 *
 *   - Malformed input never kills the daemon: every protocol error is a
 *     typed CorruptInputError answered (best effort) with an Error
 *     frame and a closed connection.
 *   - A hung or slow-loris client costs one worker at most the per-frame
 *     I/O deadline; a wedged simulation costs at most the per-request
 *     deadline (cooperative watchdog cancellation).
 *   - Transient failures (injected or real IoError) are retried with
 *     exponential backoff before a typed error is returned.
 *   - Overload degrades gracefully: a full queue gets a typed BUSY reply
 *     with a retry-after hint; above the shed threshold, cold capture
 *     requests are shed first while cache hits and warm replays keep
 *     being served.
 *   - Graceful drain (SIGTERM via the wake pipe, or a Drain frame):
 *     in-flight requests finish, queued requests are journaled and
 *     answered BUSY, and a restarted daemon resumes the journaled
 *     backlog into its cache.
 */

#ifndef RSR_SERVE_DAEMON_HH
#define RSR_SERVE_DAEMON_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "harness/thread_pool.hh"
#include "serve/cache.hh"
#include "serve/journal.hh"
#include "serve/net_io.hh"
#include "serve/protocol.hh"
#include "util/fault.hh"

namespace rsr::serve
{

/** Everything configurable about one daemon instance. */
struct ServeConfig
{
    /** Listen port on 127.0.0.1 (0 picks an ephemeral port). */
    std::uint16_t port = 0;
    /** Worker threads executing requests. */
    unsigned threads = 2;
    /** Bounded admission queue: accepted connections queued + running.
     *  Beyond it, new connections get a typed BUSY reply. */
    std::uint64_t queueCapacity = 16;
    /** Queue fill fraction above which cold capture requests are shed
     *  (warm replays and cache hits are still admitted). */
    double shedFillFraction = 0.75;
    /** Per-frame socket I/O deadline (slow-loris bound), seconds. */
    double ioDeadlineSec = 5.0;
    /** Default per-request watchdog deadline, seconds (0 = unlimited).
     *  A request's own deadlineMs, when set, takes precedence. */
    double requestDeadlineSec = 120.0;
    /** Extra attempts for retryable (transient) failures. */
    unsigned maxRetries = 1;
    /** Backoff before retry attempt k: backoffMs << k. */
    unsigned backoffMs = 5;
    /** Result-cache byte budget. */
    std::uint64_t resultCacheBytes = 64ull << 20;
    /** Live-point store cache byte budget. */
    std::uint64_t storeCacheBytes = 256ull << 20;
    /** Request journal path; empty disables journaling (and resume). */
    std::string journalPath;
    /** Fault injection armed for the daemon's lifetime when enabled. */
    FaultConfig faults;
};

/** A monotonic snapshot of the daemon's observability counters. */
struct ServeStats
{
    std::uint64_t accepted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t warmReplays = 0;
    std::uint64_t coldCaptures = 0;
    std::uint64_t shedBusy = 0;     ///< BUSY: queue full
    std::uint64_t shedOverload = 0; ///< BUSY: cold request above shed mark
    std::uint64_t shedDraining = 0; ///< BUSY: journaled during drain
    std::uint64_t retries = 0;
    std::uint64_t deadlineExceeded = 0;
    std::uint64_t protocolErrors = 0;
    std::uint64_t journalResumed = 0;
    std::uint64_t queueDepth = 0;
    std::uint64_t inflight = 0;
    std::uint64_t resultCacheEntries = 0;
    std::uint64_t resultCacheBytes = 0;
    std::uint64_t storeCacheEntries = 0;
    std::uint64_t storeCacheBytes = 0;
    bool draining = false;

    /** Render as the flat JSON object a StatsResponse carries. */
    std::string json() const;
};

/**
 * One daemon instance. Lifecycle: construct, start() (bind + journal
 * resume), serve() (blocks until drained). requestDrain() — or a byte
 * written to wakeFd() from a signal handler, or a Drain frame from an
 * admin client — initiates a graceful drain.
 */
class Server
{
  public:
    explicit Server(ServeConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind the listen socket, open the journal, and schedule any
     * journaled backlog for execution. After start(), port() is final.
     */
    void start();

    /** The bound listen port (valid after start()). */
    std::uint16_t port() const { return config_.port; }

    /**
     * Write end of the self-pipe. A single write() here — async-signal-
     * safe — requests a graceful drain; SIGTERM/SIGINT handlers use it.
     */
    int wakeFd() const;

    /** Thread-safe drain request (equivalent to a wake-pipe byte). */
    void requestDrain();

    /**
     * Accept-and-dispatch loop. Returns after a drain request once all
     * in-flight work has finished and queued work is journaled.
     */
    void serve();

    /** Snapshot the observability counters. */
    ServeStats stats() const;

  private:
    struct Counters;

    void handleConnection(int fd);
    void handleSimRequest(int fd, const Frame &frame);
    /** Execute @p request, whose resolved run is @p run with capture
     *  key @p capture_key (cache-aware); returns the result JSON. */
    std::string execute(const SimRequest &request,
                        const core::SampledConfig &run,
                        std::uint64_t capture_key, bool *warm_reuse,
                        bool *cold_capture);
    /** Execute with retry-with-backoff for transient failures. */
    std::string executeWithRetry(const SimRequest &request,
                                 const core::SampledConfig &run,
                                 std::uint64_t capture_key,
                                 bool *warm_reuse, bool *cold_capture);
    void runBacklog(std::uint64_t id, const SimRequest &request);
    void sendBestEffort(int fd, const Frame &frame);
    void replyBusy(int fd, std::uint64_t request_id, const char *reason,
                   std::uint64_t queue_depth);
    void replyError(int fd, std::uint64_t request_id, ErrorKind kind,
                    const std::string &message, bool retryable);

    ServeConfig config_;
    Socket listen_;
    WakePipe wake_;
    std::unique_ptr<harness::ThreadPool> pool_;
    std::unique_ptr<RequestJournal> journal_;
    std::unique_ptr<ScopedFaultInjection> faultGuard_;
    ResultCache results_;
    StoreCache stores_;

    std::atomic<bool> draining_{false};
    std::atomic<std::uint64_t> nextRequestId_{0};
    std::atomic<std::uint64_t> queued_{0};   ///< accepted, not yet running
    std::atomic<std::uint64_t> inflight_{0}; ///< handler bodies running
    std::unique_ptr<Counters> counters_;
    bool started_ = false;
};

} // namespace rsr::serve

#endif // RSR_SERVE_DAEMON_HH
