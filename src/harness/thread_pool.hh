/**
 * @file
 * The harness worker pool, shared by the campaign runner (whole jobs),
 * parallel_run.hh (per-cluster timing replays), and the serve daemon
 * (request execution). Tasks are plain callables; the first exception a
 * task throws is captured and rethrown from wait().
 *
 * Scheduling is work-stealing over per-worker deques: submit() places a
 * task on the least-loaded worker's deque (weights are the caller's cost
 * estimate — cluster lengths, request sizes), each worker pops its own
 * deque front-first, and an idle worker steals from a victim's back.
 * Only a small counter-and-wake structure is shared; the deques
 * themselves are cache-line separated and individually locked, so a
 * submission never contends with every worker the way a single shared
 * queue does.
 *
 * Execution order is deliberately nondeterministic (it depends on steal
 * timing); determinism of *results* is the caller's contract — replay
 * results are committed by cluster index, never by completion order, so
 * any steal schedule produces bit-identical output. The stealSeed
 * constructor argument randomizes victim selection so stress tests can
 * prove that invariant across adversarial steal orders.
 */

#ifndef RSR_HARNESS_THREAD_POOL_HH
#define RSR_HARNESS_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rsr::harness
{

/**
 * Fixed-size work-stealing worker pool. submit() enqueues a task on the
 * least-loaded worker; wait() blocks until every submitted task has
 * finished and rethrows the first exception any task raised (later
 * exceptions are dropped). The destructor discards tasks that have not
 * started, finishes the ones that have, and joins.
 */
class ThreadPool
{
  public:
    /**
     * @param threads worker count; clamped to at least 1.
     * @param steal_seed 0 = fixed ring victim order; nonzero seeds a
     *        per-worker Rng that shuffles victim order on every steal
     *        attempt (stress-testing knob — results must not depend on
     *        who steals what).
     */
    explicit ThreadPool(unsigned threads, std::uint64_t steal_seed = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned size() const { return static_cast<unsigned>(workers.size()); }

    /** Enqueue @p task with unit weight. */
    void submit(std::function<void()> task) { submit(std::move(task), 1); }

    /**
     * Enqueue @p task with a load estimate. Weights only steer placement
     * (least loaded lane first) and balance long tails — longest-first
     * submission plus stealing keeps every worker busy until the final
     * task drains. They never affect results.
     */
    void submit(std::function<void()> task, std::uint64_t weight);

    /**
     * Block until all submitted tasks completed. Rethrows the first
     * task exception, after which the pool is reusable.
     */
    void wait();

    /**
     * 0-based index of the calling pool worker, or -1 when the caller is
     * not a pool worker thread. Replays use it as their ReplayLedger
     * lane, selecting a private arena without any shared lookup.
     * Each pool assigns indices to its own threads, so nested pools see
     * their own numbering.
     */
    static int workerIndex();

  private:
    struct Task
    {
        std::function<void()> fn;
        std::uint64_t weight = 1;
    };

    /**
     * One worker's deque, padded to its own cache line(s) so pushes and
     * pops on neighbouring lanes never false-share.
     */
    struct alignas(64) Lane
    {
        std::mutex mu;
        std::deque<Task> deq;
        /** Outstanding queued weight, read lock-free for placement. */
        std::atomic<std::uint64_t> load{0};
    };

    void workerLoop(unsigned self);
    bool tryGrab(unsigned self, std::uint64_t *shuffle_state, Task &out);

    std::vector<std::unique_ptr<Lane>> lanes;
    std::uint64_t stealSeed;

    // rsrlint: lock-order(mu < lane.mu) — pool mutex first, then a lane;
    // tryGrab takes lane locks alone (see workerLoop's comment).
    std::mutex mu; // guards queued/pending/stopping/firstError
    std::condition_variable cvWork;
    std::condition_variable cvDone;
    std::size_t queued = 0;  // tasks resident in some lane
    std::size_t pending = 0; // queued + running
    bool stopping = false;
    std::exception_ptr firstError;
    std::vector<std::thread> workers;
};

} // namespace rsr::harness

#endif // RSR_HARNESS_THREAD_POOL_HH
