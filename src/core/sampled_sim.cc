#include "sampled_sim.hh"

#include <utility>

#include "core/phase_driver.hh"
#include "func/funcsim.hh"
#include "util/timer.hh"

namespace rsr::core
{

namespace
{

/**
 * The serial consumer of the deferred front half: measures each cluster
 * the moment it is captured, on one reused arena machine.
 */
class SerialReplaySink : public ReplaySink
{
  public:
    explicit SerialReplaySink(const MachineConfig &machine)
        : machine(machine)
    {}

    void
    onCluster(ClusterReplayTask task) override
    {
        std::uint64_t recon = 0;
        double seconds = 0.0;
        const uarch::RunResult rr =
            replayCluster(task, machine, arena, &recon, &seconds);
        clusterIpc.push_back(rr.ipc());
        stats.insts += rr.insts;
        stats.cycles += rr.cycles;
        stats.branchMispredicts += rr.branchMispredicts;
        stats.reconUpdates += recon;
        stats.measureSeconds += seconds;
    }

    std::vector<double> clusterIpc;
    ReplayStatShard stats;

  private:
    const MachineConfig &machine;
    ReplayArena arena;
};

} // namespace

SampledResult
runSampled(const func::Program &program, WarmupPolicy &policy,
           const SampledConfig &config)
{
    WallTimer timer;
    ClusterScheduleDriver driver(program, policy, config);
    SerialReplaySink sink(config.machine);
    SampledResult res = driver.runDeferred(sink);

    res.clusterIpc = std::move(sink.clusterIpc);
    res.hotInsts = sink.stats.insts;
    res.hotCycles = sink.stats.cycles;
    res.branchMispredicts = sink.stats.branchMispredicts;
    res.phases.measureInsts = sink.stats.insts;
    res.phases.measureSeconds = sink.stats.measureSeconds;
    policy.addReconstructionWork(sink.stats.reconUpdates);
    res.warmWork = policy.work();
    res.estimate = summarizeClusters(res.clusterIpc);
    res.seconds = timer.seconds();
    return res;
}

FullRunResult
runFull(const func::Program &program, std::uint64_t total_insts,
        const MachineConfig &machine_config)
{
    FullRunResult res;
    WallTimer timer;

    func::FuncSim fs(program);
    Machine machine(machine_config);
    uarch::OoOCore core(machine_config.core, machine.hier, machine.bp);
    FuncSource src(fs);
    res.timing = core.run(src, total_insts);
    res.seconds = timer.seconds();
    return res;
}

} // namespace rsr::core
