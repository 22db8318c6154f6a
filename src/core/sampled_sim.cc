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
    const std::vector<Cluster> schedule = scheduleFor(config);
    RegionConsumer consumer(policy, 0, config);
    consumer.prepare(program, schedule, config.deadline);
    RegionProducer producer(program, schedule, {&policy}, config);
    ReplayLedger ledger(schedule.size(), config.machine);
    ReplayArena arena;
    RegionLog region;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        producer.produce(region);
        Machine *warm = nullptr;
        std::unique_ptr<MeasureContext> context;
        consumer.consume(region, [&](const Machine &m,
                                     std::unique_ptr<MeasureContext> c) {
            warm = &arena.copy(m);
            context = std::move(c);
        });
        ledger.measure(region.index, *warm, context.get(), region.trace);
    }
    SampledResult res = consumer.finish(producer.counters(), 1.0);
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
