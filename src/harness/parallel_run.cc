#include "parallel_run.hh"

#include <memory>

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
    // Validate every name up front so a typo late in the list cannot
    // waste the whole sweep.
    std::vector<PolicySweepEntry> out(policy_names.size());
    for (std::size_t i = 0; i < policy_names.size(); ++i) {
        out[i].cliName = policy_names[i];
        out[i].displayName =
            core::makePolicyByName(policy_names[i])->name();
    }

    ThreadPool pool(jobs);
    for (std::size_t i = 0; i < out.size(); ++i) {
        pool.submit([&, i] {
            const auto policy = core::makePolicyByName(out[i].cliName);
            // rsrlint: commit-zone — per-policy slot, disjoint by index.
            out[i].result =
                runSampledParallel(program, *policy, config, 1);
        });
    }
    pool.wait();
    return out;
}

} // namespace rsr::harness
