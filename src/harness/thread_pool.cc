#include "thread_pool.hh"

#include <utility>

#include "util/logging.hh"

namespace rsr::harness
{

/** Per-thread worker index, behind an accessor; set once per worker. */
static int &
tlWorkerSlot()
{
    static thread_local int slot = -1;
    return slot;
}

int
ThreadPool::workerIndex()
{
    return tlWorkerSlot();
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = 1;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        workers.emplace_back([this, t] { workerLoop(t); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu);
        stopping = true;
        // Tasks that never started are abandoned; running ones finish.
        pending -= tasks.size();
        tasks.clear();
    }
    cvWork.notify_all();
    cvDone.notify_all();
    for (auto &t : workers)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lk(mu);
        rsr_assert(!stopping, "submit on a stopping thread pool");
        tasks.push_back(std::move(task));
        ++pending;
    }
    cvWork.notify_one();
}

void
ThreadPool::workerLoop(unsigned self)
{
    tlWorkerSlot() = static_cast<int>(self);
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
        cvWork.wait(lk, [this] { return stopping || !tasks.empty(); });
        if (tasks.empty())
            return; // stopping and drained
        std::function<void()> task = std::move(tasks.front());
        tasks.pop_front();
        lk.unlock();
        try {
            task();
        } catch (...) {
            std::lock_guard<std::mutex> el(mu);
            if (!firstError)
                firstError = std::current_exception();
        }
        task = nullptr; // drop captures before signalling completion
        lk.lock();
        if (--pending == 0)
            cvDone.notify_all();
    }
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lk(mu);
    cvDone.wait(lk, [this] { return pending == 0; });
    if (firstError)
        std::rethrow_exception(std::exchange(firstError, nullptr));
}

} // namespace rsr::harness
