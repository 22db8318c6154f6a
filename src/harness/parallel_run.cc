#include "parallel_run.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
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

/**
 * Run lane(w) on each of @p workers pool workers (w < workers) and
 * lane(workers) on the calling thread — inline, with no pool, at 0
 * workers — and return once every lane has returned. A failing lane must
 * make the others return; its exception is rethrown after they all did:
 * the calling thread's if it threw, else the first worker's.
 */
template <typename Lane>
void
runLanes(unsigned workers, const Lane &lane)
{
    if (workers == 0)
        return lane(0);
    ThreadPool pool(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.submit([&lane, w] { lane(w); });
    try {
        lane(workers);
    } catch (...) {
        // No lane may outlive the state it reads.
        try {
            pool.wait();
        } catch (...) {
            // The calling thread's exception is the one to report.
        }
        throw;
    }
    pool.wait(); // rethrows a worker lane's failure
}

/**
 * The sampled-run pipeline on lanes. The calling thread's lane runs the
 * producer, filling the RegionLog buffers in turn; each (policy, region)
 * pair is one consumer task. A policy's tasks warm one at a time, in
 * region order: each task warms the policy's machine and copies it onto
 * its lane's arena, queues the policy's next task (once that region is
 * produced), and only then measures its cluster, so the measurement
 * overlaps the next region's warm-up. No policy waits for another: one
 * slow task (a heavier policy, a preempted worker) holds up only its own
 * chain. The producer refills a buffer only after every policy has
 * measured the region in it.
 *
 * Every lane, the calling thread's included, loops over the pipeline's
 * one task queue under its one mutex; the calling thread produces the
 * next region instead whenever that region's buffer is free. The queue
 * starts with each policy's prepare() (MRRL and BLRL profile the
 * schedule), and production waits for all of them. Whichever lane runs a
 * task, the policy's chain stays in region order and its ledger commits
 * by cluster index.
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
          schedule(core::scheduleFor(config)), arenas(std::max(jobs, 1u) + 1),
          regions(bufferCount(arenas.size(), this->policies.size())),
          readers(regions.size(), 0), next(this->policies.size(), 0)
    {
        for (std::size_t k = 0; k < this->policies.size(); ++k) {
            consumers.push_back(std::make_unique<core::RegionConsumer>(
                *this->policies[k], k, config));
            ledgers.push_back(std::make_unique<core::ReplayLedger>(
                schedule.size(), config.machine));
            queued.emplace_back(k, kPrepare);
        }
        left = this->policies.size() * (schedule.size() + 1);
    }

    std::vector<core::SampledResult>
    run()
    {
        core::RegionProducer producer(
            program, schedule,
            std::vector<const core::WarmupPolicy *>(policies.begin(),
                                                    policies.end()),
            config);
        runLanes(arenas.size() - 1,
                 [&](std::size_t w) { lane(w, producer); });

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
    /** The region of a queued prepare() task. */
    static constexpr std::size_t kPrepare = SIZE_MAX;

    static std::size_t
    bufferCount(std::size_t lanes, std::size_t policies)
    {
        return std::max<std::size_t>(
            2, 1 + (lanes + policies - 1) / policies);
    }

    /**
     * Lane @p w: run queued tasks on arena @p w until every task has
     * run or some lane failed. The last lane is the calling thread's: it
     * produces the next region, rather than run a task, whenever that
     * region's buffer is free.
     */
    void
    lane(std::size_t w, core::RegionProducer &producer)
    {
        const bool producing = w + 1 == arenas.size();
        try {
            std::unique_lock<std::mutex> lk(mu);
            const auto canProduce = [&] {
                return producing && produced < schedule.size() &&
                       prepared == consumers.size() &&
                       readers[produced % regions.size()] == 0;
            };
            for (;;) {
                wake.wait(lk, [&] {
                    return failed || left == 0 || canProduce() ||
                           !queued.empty();
                });
                if (failed || left == 0)
                    return;
                if (canProduce()) {
                    const std::size_t r = produced;
                    lk.unlock();
                    producer.produce(regions[r % regions.size()]);
                    lk.lock();
                    produced = r + 1;
                    readers[r % regions.size()] = consumers.size();
                    for (std::size_t k = 0; k < consumers.size(); ++k)
                        if (next[k] == r)
                            queued.emplace_back(k, r);
                    wake.notify_all();
                } else {
                    const auto [k, task] = queued.front();
                    queued.pop_front();
                    lk.unlock();
                    if (task == kPrepare)
                        prepare(k);
                    else
                        consume(k, task, arenas[w]);
                    lk.lock();
                }
            }
        } catch (...) {
            std::lock_guard<std::mutex> lk(mu);
            failed = true;
            wake.notify_all();
            throw;
        }
    }

    void
    prepare(std::size_t k)
    {
        consumers[k]->prepare(program, schedule, config.deadline);
        std::lock_guard<std::mutex> lk(mu);
        --left;
        if (++prepared == consumers.size())
            wake.notify_all(); // the producer may start
    }

    void
    consume(std::size_t k, std::size_t r, core::ReplayArena &arena)
    {
        const core::RegionLog &region = regions[r % regions.size()];
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
            if (r + 1 < produced) {
                queued.emplace_back(k, r + 1);
                wake.notify_one();
            }
        }
        ledgers[k]->measure(r, *warm, context.get(), region.trace);
        std::lock_guard<std::mutex> lk(mu);
        --left;
        // The producer may refill the buffer, or every lane may stop.
        if (--readers[r % regions.size()] == 0)
            wake.notify_all();
    }

    const func::Program &program;
    const std::vector<core::WarmupPolicy *> policies;
    const core::SampledConfig &config;
    const std::vector<core::Cluster> schedule;
    std::vector<std::unique_ptr<core::RegionConsumer>> consumers;
    std::vector<std::unique_ptr<core::ReplayLedger>> ledgers; // per policy
    // One per lane: per pool worker, then the calling thread's.
    std::vector<core::ReplayArena> arenas;
    std::vector<core::RegionLog> regions;

    std::mutex mu; // guards the fields below
    // Lanes wait here: a task queued, a buffer freed, every prepare()
    // done, the last region measured, or a failure.
    std::condition_variable wake;
    std::deque<std::pair<std::size_t, std::size_t>> queued; // (policy, region)
    std::vector<std::size_t> readers; // per buffer: policies yet to measure
    std::size_t prepared = 0;         // policies whose prepare() returned
    std::size_t produced = 0;         // regions published so far
    std::size_t left = 0;             // tasks yet to finish
    std::vector<std::size_t> next;    // per policy: its next region
    bool failed = false;
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

    // The lanes are jobs pool workers and the calling thread, or the
    // calling thread alone at jobs <= 1. A lane pulls cluster indices
    // from one shared counter, decodes each cluster's blobs
    // (makeReplayTask is const) and measures it on the lane's own arena.
    // A failing lane stops the others at their next pull.
    const unsigned workers = jobs <= 1 ? 0 : jobs;
    std::vector<core::ReplayArena> arenas(workers + 1);
    std::atomic<std::size_t> nextCluster{0};
    std::atomic<bool> failed{false};
    runLanes(workers, [&](std::size_t w) {
        try {
            while (!failed.load(std::memory_order_relaxed)) {
                const std::size_t i = nextCluster.fetch_add(1);
                if (i >= n)
                    break;
                core::ClusterReplayTask task = store.makeReplayTask(i);
                ledger.replay(task, arenas[w]);
            }
        } catch (...) {
            failed.store(true, std::memory_order_relaxed);
            throw;
        }
    });

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
