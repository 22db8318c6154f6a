#include "thread_pool.hh"

#include <system_error>
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
    try {
        for (unsigned t = 0; t < threads; ++t)
            workers.emplace_back([this, t] { workerLoop(t); });
    } catch (const std::system_error &e) {
        // A joinable std::thread must not be destroyed.
        stop();
        rsr_throw_io("cannot start pool worker ", workers.size() + 1,
                     " of ", threads, ": ", e.what());
    }
}

void
ThreadPool::stop()
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
    bool wake;
    {
        std::lock_guard<std::mutex> lk(mu);
        rsr_assert(!stopping, "submit on a stopping thread pool");
        tasks.push_back(std::move(task));
        ++pending;
        // A busy worker checks the queue before it parks, so only a
        // parked one needs waking.
        wake = parked > 0;
    }
    if (wake)
        cvWork.notify_one();
}

void
ThreadPool::workerLoop(unsigned self)
{
    tlWorkerSlot() = static_cast<int>(self);
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
        while (!stopping && tasks.empty()) {
            ++parked;
            cvWork.wait(lk);
            --parked;
        }
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
