/**
 * @file
 * The harness worker pool for campaign jobs, serve requests, and the
 * lanes of the sampled-run pipeline and store replay (parallel_run.hh,
 * which submits one long task per worker): one FIFO queue under one
 * mutex. Its tasks are independent, so any idle worker serves the next
 * task as well as any other. Execution
 * order varies between runs; results do not, because callers commit them
 * by index, never by completion order. The destructor discards tasks
 * that have not started, lets running ones finish, and joins.
 */

#ifndef RSR_HARNESS_THREAD_POOL_HH
#define RSR_HARNESS_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rsr::harness
{

/** Fixed-size FIFO worker pool. */
class ThreadPool
{
  public:
    /** @param threads worker count, clamped to at least 1. Throws
     *  IoError, with no worker left running, if one cannot start. */
    explicit ThreadPool(unsigned threads);
    ~ThreadPool() { stop(); }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned size() const { return static_cast<unsigned>(workers.size()); }

    /** Enqueue @p task at the back of the queue. */
    void submit(std::function<void()> task);

    /** Same as submit(task); the weight is ignored. */
    void submit(std::function<void()> task, std::uint64_t) { submit(std::move(task)); }

    /**
     * Block until all submitted tasks completed. Rethrows the first
     * task exception (later ones are dropped); the pool stays reusable.
     */
    void wait();

    /**
     * The calling thread's 0-based index in its own pool, or -1 off any
     * pool. A task of one pool that runs another pool's work still sees
     * its own pool's index, so the library passes per-lane state by
     * position instead (parallel_run.cc); tests and perfbench read it.
     */
    static int workerIndex();

  private:
    void workerLoop(unsigned self);
    /** Discard unstarted tasks, let running ones finish, and join. */
    void stop();

    std::mutex mu; // guards every field below but workers
    std::condition_variable cvWork;
    std::condition_variable cvDone;
    std::deque<std::function<void()>> tasks;
    std::size_t pending = 0; // queued + running
    unsigned parked = 0;     // workers waiting on cvWork
    bool stopping = false;
    std::exception_ptr firstError;
    std::vector<std::thread> workers;
};

} // namespace rsr::harness

#endif // RSR_HARNESS_THREAD_POOL_HH
