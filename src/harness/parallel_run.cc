#include "parallel_run.hh"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "core/estimator.hh"
#include "core/phase_driver.hh"
#include "harness/thread_pool.hh"
#include "util/timer.hh"

namespace rsr::harness
{

namespace
{

/** The ledger lane of the calling pool worker. */
std::size_t
workerLane()
{
    return static_cast<std::size_t>(ThreadPool::workerIndex());
}

/** Hands each replay task to a pool worker. */
class PoolSink : public core::ReplaySink
{
  public:
    PoolSink(ThreadPool &pool, core::ReplayLedger &ledger)
        : pool(pool), ledger(ledger)
    {}

    void
    onCluster(core::ClusterReplayTask task) override
    {
        auto t = std::make_shared<core::ClusterReplayTask>(
            std::move(task));
        pool.submit([this, t] { ledger.replay(*t, workerLane()); });
    }

  private:
    ThreadPool &pool;
    core::ReplayLedger &ledger;
};

/**
 * The policy sweep's pipeline. The calling thread runs the producer,
 * filling two RegionLog buffers in turn; the pool runs one task per
 * (region, policy). A policy's tasks run one at a time, in region order,
 * each submitted once its region is produced and the policy's previous
 * task is done, so no policy waits for another: one slow task (a
 * heavier policy, a preempted worker) holds up only its own chain. The
 * producer refills a buffer only after every policy has finished the
 * region in it, so at most two regions are in flight whatever the
 * population length.
 */
class SweepPipeline
{
  public:
    SweepPipeline(
        const func::Program &program,
        const std::vector<std::unique_ptr<core::WarmupPolicy>> &policies,
        const core::SampledConfig &config, unsigned jobs)
        : program(program), policies(policies), config(config),
          schedule(core::scheduleFor(config)), arenas(std::max(jobs, 1u)),
          next(policies.size(), 0), pool(jobs)
    {
        for (std::size_t k = 0; k < policies.size(); ++k) {
            consumers.push_back(std::make_unique<core::RegionConsumer>(
                *policies[k], k, config));
            ledgers.push_back(std::make_unique<core::ReplayLedger>(
                schedule.size(), 0, config.machine));
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

        std::vector<const core::WarmupPolicy *> observers;
        for (const auto &p : policies)
            observers.push_back(p.get());
        core::RegionProducer producer(program, schedule,
                                      std::move(observers), config);
        try {
            for (std::size_t r = 0; r < schedule.size(); ++r) {
                {
                    std::unique_lock<std::mutex> lk(mu);
                    regionFree.wait(lk, [&] {
                        return readers[r % 2] == 0 || failed;
                    });
                    if (failed)
                        break;
                }
                producer.produce(regions[r % 2]);

                std::lock_guard<std::mutex> lk(mu);
                produced = r + 1;
                readers[r % 2] = consumers.size();
                for (std::size_t k = 0; k < consumers.size(); ++k)
                    if (next[k] == r)
                        submit(k, r);
            }
        } catch (...) {
            {
                std::lock_guard<std::mutex> lk(mu);
                failed = true;
            }
            // No task may outlive the buffers it reads.
            try {
                pool.wait();
            } catch (...) {
                // The producer's exception is the one to report.
            }
            throw;
        }
        pool.wait(); // rethrows a consumer's failure

        const core::PhaseCounters &pc = producer.counters();
        producerSeconds = pc.skipSeconds + pc.captureSeconds;
        std::vector<core::SampledResult> out;
        const double share = 1.0 / static_cast<double>(consumers.size());
        for (std::size_t k = 0; k < consumers.size(); ++k) {
            out.push_back(consumers[k]->finish(producer.counters(), share));
            policies[k]->addReconstructionWork(ledgers[k]->fold(out.back()));
        }
        return out;
    }

    /** The producer's skip + capture seconds, once run() returned. */
    double producerSeconds = 0.0;

  private:
    /** Queue policy @p k's task for region @p r; the caller holds mu. */
    void
    submit(std::size_t k, std::size_t r)
    {
        pool.submit([this, k, r] { consume(k, r); });
    }

    void
    consume(std::size_t k, std::size_t r)
    {
        {
            std::lock_guard<std::mutex> lk(mu);
            if (failed)
                return;
        }
        try {
            consumers[k]->consume(regions[r % 2], arenas[workerLane()],
                                  *ledgers[k]);
        } catch (...) {
            std::lock_guard<std::mutex> lk(mu);
            failed = true;
            regionFree.notify_all();
            throw;
        }
        std::lock_guard<std::mutex> lk(mu);
        next[k] = r + 1;
        if (--readers[r % 2] == 0)
            regionFree.notify_all();
        if (r + 1 < produced && !failed)
            submit(k, r + 1);
    }

    const func::Program &program;
    const std::vector<std::unique_ptr<core::WarmupPolicy>> &policies;
    const core::SampledConfig &config;
    const std::vector<core::Cluster> schedule;
    std::vector<std::unique_ptr<core::RegionConsumer>> consumers;
    std::vector<std::unique_ptr<core::ReplayLedger>> ledgers; // per policy
    std::vector<core::ReplayArena> arenas; // one per worker lane
    std::array<core::RegionLog, 2> regions;

    std::mutex mu; // guards the fields below
    std::condition_variable regionFree;
    std::array<std::size_t, 2> readers{}; // policies yet to finish a buffer
    std::size_t produced = 0;              // regions published so far
    std::vector<std::size_t> next;         // per policy: its next region
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
    core::ClusterScheduleDriver driver(program, policy, config);
    core::ReplayLedger ledger(driver.schedule().size(), jobs,
                              config.machine);
    // Pool declared after the ledger so in-flight replays finish (and
    // abandoned ones are discarded) before the slots die if the front
    // half throws.
    ThreadPool pool(jobs);
    PoolSink sink(pool, ledger);
    core::SampledResult res = driver.runDeferred(sink);
    pool.wait();
    policy.addReconstructionWork(ledger.fold(res));
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
    if (jobs == 0)
        jobs = 1;

    core::ReplayLedger ledger(n, jobs, machine_config);
    ThreadPool pool(jobs);
    for (std::size_t i = 0; i < n; ++i) {
        // Out-of-order consumer pass: each worker decodes and measures
        // its cluster independently (makeReplayTask is const).
        pool.submit([&store, &ledger, i] {
            core::ClusterReplayTask task = store.makeReplayTask(i);
            ledger.replay(task, workerLane());
        });
    }
    pool.wait();

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
runPolicySweep(const func::Program &program,
               const std::vector<std::string> &policy_names,
               const core::SampledConfig &config, unsigned jobs)
{
    // Build every policy up front so a typo late in the list cannot
    // waste the whole sweep.
    std::vector<PolicySweepEntry> out(policy_names.size());
    std::vector<std::unique_ptr<core::WarmupPolicy>> policies;
    for (std::size_t i = 0; i < policy_names.size(); ++i) {
        policies.push_back(core::makePolicyByName(policy_names[i]));
        out[i].cliName = policy_names[i];
        out[i].displayName = policies.back()->name();
    }
    if (policies.empty())
        return out;

    SweepPipeline pipeline(program, policies, config, jobs);
    std::vector<core::SampledResult> results = pipeline.run();
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i].result = std::move(results[i]);
        out[i].producerSeconds = pipeline.producerSeconds;
    }
    return out;
}

} // namespace rsr::harness
