#include "sampled_sim.hh"

#include "core/phase_driver.hh"
#include "func/funcsim.hh"
#include "util/timer.hh"

namespace rsr::core
{

SampledResult
runSampled(const func::Program &program, WarmupPolicy &policy,
           const SampledConfig &config)
{
    WallTimer timer;
    ClusterScheduleDriver driver(program, policy, config);
    ReplayLedger ledger(driver.schedule().size(), 1, config.machine);
    SampledResult res = driver.runDeferred(ledger);
    policy.addReconstructionWork(ledger.fold(res));
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
