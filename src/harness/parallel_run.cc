#include "parallel_run.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>

#include "core/estimator.hh"
#include "core/phase_driver.hh"
#include "harness/thread_pool.hh"
#include "util/timer.hh"

namespace rsr::harness
{

namespace
{

/** The calling pool worker's index, which picks its ReplayArena. */
std::size_t
workerLane()
{
    return static_cast<std::size_t>(ThreadPool::workerIndex());
}

/**
 * The sampled-run pipeline on a pool. The calling thread runs the
 * producer, filling the RegionLog buffers in turn; each (region, policy)
 * pair is one consumer task. A policy's tasks warm one at a time, in
 * region order: each task warms the policy's machine and copies it onto
 * its thread's arena, queues the policy's next task (once that region is
 * produced), and only then measures its cluster, so the measurement
 * overlaps the next region's warm-up. No policy waits for another: one
 * slow task (a heavier policy, a preempted worker) holds up only its own
 * chain. The producer refills a buffer only after every policy has
 * measured the region in it.
 *
 * The calling thread is a consumer lane too. Tasks wait in the
 * pipeline's own queue; each queued task also submits one pool task that
 * runs the oldest queued one, if any is left. While the calling thread
 * waits for a free buffer, and once it has produced the last region, it
 * runs queued tasks itself on its own arena, and blocks only when none
 * is queued. Whichever thread runs a task, the policy's chain stays in
 * region order and its ledger commits by cluster index.
 *
 * The buffer count is derived, not tuned: max(2, 1 + ceil(lanes /
 * policies)), where lanes = jobs + 1 counts the calling thread. Two
 * suffice while the policies alone can keep every lane busy (a sweep);
 * one policy on many lanes needs one buffer per cluster in flight plus
 * the one being produced.
 */
class SweepPipeline
{
  public:
    SweepPipeline(const func::Program &program,
                  std::vector<core::WarmupPolicy *> policies,
                  const core::SampledConfig &config, unsigned jobs)
        : program(program), policies(std::move(policies)), config(config),
          schedule(core::scheduleFor(config)),
          arenas(std::max(jobs, 1u) + 1),
          regions(bufferCount(jobs, this->policies.size())),
          readers(regions.size(), 0), next(this->policies.size(), 0),
          pool(jobs)
    {
        for (std::size_t k = 0; k < this->policies.size(); ++k) {
            consumers.push_back(std::make_unique<core::RegionConsumer>(
                *this->policies[k], k, config));
            ledgers.push_back(std::make_unique<core::ReplayLedger>(
                schedule.size(), config.machine));
        }
    }

    std::vector<core::SampledResult>
    run()
    {
        // Profiled policies (MRRL, BLRL) profile the schedule first.
        for (auto &c : consumers)
            pool.submit([this, c = c.get()] {
                c->prepare(program, schedule, config.deadline);
            });
        pool.wait();

        core::RegionProducer producer(
            program, schedule,
            std::vector<const core::WarmupPolicy *>(policies.begin(),
                                                    policies.end()),
            config);
        try {
            for (std::size_t r = 0; r < schedule.size(); ++r) {
                const std::size_t b = r % regions.size();
                if (!helpUntil([&] { return readers[b] == 0; }))
                    break;
                producer.produce(regions[b]);

                std::lock_guard<std::mutex> lk(mu);
                produced = r + 1;
                readers[b] = consumers.size();
                for (std::size_t k = 0; k < consumers.size(); ++k)
                    if (next[k] == r)
                        submit(k, r);
            }
            helpUntil([&] {
                return std::all_of(readers.begin(), readers.end(),
                                   [](std::size_t n) { return n == 0; });
            });
        } catch (...) {
            {
                std::lock_guard<std::mutex> lk(mu);
                failed = true;
            }
            // No task may outlive the buffers it reads.
            try {
                pool.wait();
            } catch (...) {
                // The calling thread's exception is the one to report.
            }
            throw;
        }
        pool.wait(); // rethrows a consumer's failure

        const core::PhaseCounters &pc = producer.counters();
        producerSeconds = pc.skipSeconds + pc.captureSeconds;
        std::vector<core::SampledResult> out;
        const double share = 1.0 / static_cast<double>(consumers.size());
        for (std::size_t k = 0; k < consumers.size(); ++k) {
            out.push_back(consumers[k]->finish(pc, share));
            policies[k]->addReconstructionWork(ledgers[k]->fold(out.back()));
            out.back().seconds += out.back().phases.measureSeconds;
        }
        return out;
    }

    /** The producer's skip + capture seconds, once run() returned. */
    double producerSeconds = 0.0;

  private:
    static std::size_t
    bufferCount(unsigned jobs, std::size_t policies)
    {
        const std::size_t lanes = std::max(jobs, 1u) + 1;
        return std::max<std::size_t>(
            2, 1 + (lanes + policies - 1) / policies);
    }

    /** Queue policy @p k's task for region @p r; the caller holds mu. */
    void
    submit(std::size_t k, std::size_t r)
    {
        queued.emplace_back(k, r);
        pool.submit([this] {
            std::pair<std::size_t, std::size_t> task;
            {
                std::lock_guard<std::mutex> lk(mu);
                if (queued.empty())
                    return; // the calling thread ran it
                task = queued.front();
                queued.pop_front();
            }
            consume(task.first, task.second, arenas[workerLane()]);
        });
        callerWake.notify_one();
    }

    /**
     * On the calling thread: run queued tasks on its own arena until
     * @p done (evaluated under mu) holds, blocking only while none is
     * queued. Returns false, at once, when the pipeline has failed.
     */
    template <typename Done>
    bool
    helpUntil(Done done)
    {
        std::unique_lock<std::mutex> lk(mu);
        for (;;) {
            callerWake.wait(lk, [&] {
                return failed || done() || !queued.empty();
            });
            if (failed || done())
                return !failed;
            const auto [k, r] = queued.front();
            queued.pop_front();
            lk.unlock();
            consume(k, r, arenas.back());
            lk.lock();
        }
    }

    void
    consume(std::size_t k, std::size_t r, core::ReplayArena &arena)
    {
        {
            std::lock_guard<std::mutex> lk(mu);
            if (failed)
                return;
        }
        const core::RegionLog &region = regions[r % regions.size()];
        try {
            core::Machine *warm = nullptr;
            std::unique_ptr<core::MeasureContext> context;
            consumers[k]->consume(
                region, [&](const core::Machine &m,
                            std::unique_ptr<core::MeasureContext> c) {
                    warm = &arena.copy(m);
                    context = std::move(c);
                });
            {
                std::lock_guard<std::mutex> lk(mu);
                next[k] = r + 1;
                if (r + 1 < produced && !failed)
                    submit(k, r + 1);
            }
            ledgers[k]->measure(r, *warm, context.get(), region.trace);
        } catch (...) {
            std::lock_guard<std::mutex> lk(mu);
            failed = true;
            callerWake.notify_one();
            throw;
        }
        std::lock_guard<std::mutex> lk(mu);
        if (--readers[r % regions.size()] == 0)
            callerWake.notify_one();
    }

    const func::Program &program;
    const std::vector<core::WarmupPolicy *> policies;
    const core::SampledConfig &config;
    const std::vector<core::Cluster> schedule;
    std::vector<std::unique_ptr<core::RegionConsumer>> consumers;
    std::vector<std::unique_ptr<core::ReplayLedger>> ledgers; // per policy
    // One per pool worker, then the calling thread's.
    std::vector<core::ReplayArena> arenas;
    std::vector<core::RegionLog> regions;

    std::mutex mu; // guards the fields below
    // The calling thread waits here: a buffer freed, a task queued, or
    // a failure.
    std::condition_variable callerWake;
    std::deque<std::pair<std::size_t, std::size_t>> queued; // (policy, region)
    std::vector<std::size_t> readers; // per buffer: policies yet to measure
    std::size_t produced = 0;         // regions published so far
    std::vector<std::size_t> next;    // per policy: its next region
    bool failed = false;

    // Last: destroyed first, so no task outlives the state above.
    ThreadPool pool;
};

} // namespace

core::SampledResult
runSampledParallel(const func::Program &program,
                   core::WarmupPolicy &policy,
                   const core::SampledConfig &config, unsigned jobs)
{
    if (jobs <= 1)
        return core::runSampled(program, policy, config);

    WallTimer timer;
    SweepPipeline pipeline(program, {&policy}, config, jobs);
    core::SampledResult res = std::move(pipeline.run().front());
    res.seconds = timer.seconds();
    return res;
}

core::SampledResult
replayStoreParallel(const core::LivePointStore &store,
                    const core::MachineConfig &machine_config,
                    unsigned jobs)
{
    WallTimer timer;
    const std::size_t n = store.clusterCount();
    core::ReplayLedger ledger(n, machine_config);

    // A lane pulls cluster indices from one shared counter, decodes each
    // cluster's blobs (makeReplayTask is const) and measures it on the
    // lane's own arena. A failing lane stops the others at their next
    // pull.
    std::atomic<std::size_t> nextCluster{0};
    std::atomic<bool> failed{false};
    const auto lane = [&](core::ReplayArena &arena) {
        try {
            while (!failed.load(std::memory_order_relaxed)) {
                const std::size_t i = nextCluster.fetch_add(1);
                if (i >= n)
                    break;
                core::ClusterReplayTask task = store.makeReplayTask(i);
                ledger.replay(task, arena);
            }
        } catch (...) {
            failed.store(true, std::memory_order_relaxed);
            throw;
        }
    };

    if (jobs <= 1) {
        core::ReplayArena arena;
        lane(arena);
    } else {
        // jobs pool workers, then the calling thread, each on its own
        // arena, passed by position: on a campaign or serve worker,
        // ThreadPool::workerIndex() names the outer pool's lane.
        std::vector<core::ReplayArena> arenas(jobs + 1);
        ThreadPool pool(jobs);
        for (unsigned w = 0; w < jobs; ++w)
            pool.submit([&lane, &arenas, w] { lane(arenas[w]); });
        try {
            lane(arenas[jobs]);
        } catch (...) {
            // No lane may outlive the ledger and arenas it writes.
            try {
                pool.wait();
            } catch (...) {
                // The calling thread's exception is the one to report.
            }
            throw;
        }
        pool.wait(); // rethrows a worker lane's failure
    }

    core::SampledResult res;
    ledger.fold(res);
    // The estimate the capture's estimator calls for, from the stored
    // groups (uniform stores get the plain cluster estimate).
    std::vector<std::uint32_t> groups;
    groups.reserve(n);
    for (const core::LivePointEntry &e : store.entries())
        groups.push_back(e.group);
    const core::LivePointStore::Metadata &meta = store.meta();
    res.estimate = core::estimateFor(meta.estimator,
                                     meta.regimen.numClusters,
                                     res.clusterIpc, groups);
    res.seconds = timer.seconds();
    return res;
}

core::SampledResult
replayStoreParallel(const core::LivePointStore &store, unsigned jobs)
{
    return replayStoreParallel(store, store.meta().machine, jobs);
}

std::vector<PolicySweepEntry>
sweepPolicies(const func::Program &program,
              const std::vector<core::WarmupPolicy *> &policies,
              const core::SampledConfig &config, unsigned jobs)
{
    std::vector<PolicySweepEntry> out(policies.size());
    if (policies.empty())
        return out;
    SweepPipeline pipeline(program, policies, config, jobs);
    std::vector<core::SampledResult> results = pipeline.run();
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i].cliName = out[i].displayName = policies[i]->name();
        out[i].result = std::move(results[i]);
        out[i].producerSeconds = pipeline.producerSeconds;
    }
    return out;
}

std::vector<PolicySweepEntry>
runPolicySweep(const func::Program &program,
               const std::vector<std::string> &policy_names,
               const core::SampledConfig &config, unsigned jobs)
{
    // Build every policy up front so a typo late in the list cannot
    // waste the whole sweep.
    std::vector<std::unique_ptr<core::WarmupPolicy>> policies;
    std::vector<core::WarmupPolicy *> raw;
    for (const std::string &name : policy_names) {
        policies.push_back(core::makePolicyByName(name));
        raw.push_back(policies.back().get());
    }
    std::vector<PolicySweepEntry> out =
        sweepPolicies(program, raw, config, jobs);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i].cliName = policy_names[i];
    return out;
}

} // namespace rsr::harness
