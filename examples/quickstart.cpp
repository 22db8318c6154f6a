/**
 * @file
 * Quickstart: sample one workload with Reverse State Reconstruction and
 * compare the estimate against SMARTS warming and the true (full-trace)
 * IPC.
 *
 *   ./quickstart [workload] [total_insts]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/sampled_sim.hh"
#include "core/warmup.hh"
#include "workload/synthetic.hh"

int
main(int argc, char **argv)
{
    using namespace rsr;

    const std::string name = argc > 1 ? argv[1] : "gcc";
    const std::uint64_t total =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1'000'000ull;

    std::printf("building workload '%s'...\n", name.c_str());
    const auto params = workload::standardWorkloadParams(name);
    const func::Program program = workload::buildSynthetic(params);
    std::printf("  %zu static instructions, %zu data segments\n",
                program.code.size(), program.data.size());

    core::SampledConfig cfg;
    cfg.totalInsts = total;
    cfg.regimen = {60, 4000};
    cfg.machine = core::MachineConfig::scaledDefault();

    std::printf("running full-trace reference (%llu insts)...\n",
                static_cast<unsigned long long>(total));
    const auto full = core::runFull(program, total, cfg.machine);
    std::printf("  true IPC = %.4f  (%.2fs)\n", full.ipc(), full.seconds);

    auto report = [&](core::WarmupPolicy &policy) {
        const auto r = core::runSampled(program, policy, cfg);
        std::printf("  %-12s IPC %.4f (agg %.4f)  RE %6.3f%%  "
                    "CI[%0.4f, %0.4f] %s  %.2fs  warm-updates %llu  "
                    "logged %llu\n",
                    policy.name().c_str(), r.estimate.mean,
                    r.aggregateIpc(),
                    100.0 * r.estimate.relativeError(full.ipc()),
                    r.estimate.ciLow, r.estimate.ciHigh,
                    r.estimate.passesCi(full.ipc()) ? "pass" : "FAIL",
                    r.seconds,
                    static_cast<unsigned long long>(
                        r.warmWork.totalUpdates()),
                    static_cast<unsigned long long>(
                        r.warmWork.loggedRecords));
        std::printf("      mispredicts/cluster %.1f\n",
                    static_cast<double>(r.branchMispredicts) /
                        static_cast<double>(r.clusterIpc.size()));
    };

    std::printf("sampled simulation (%llu clusters x %llu insts):\n",
                static_cast<unsigned long long>(cfg.regimen.numClusters),
                static_cast<unsigned long long>(cfg.regimen.clusterSize));

    auto none = core::makePolicyByName("none");
    report(*none);
    auto smarts = core::makePolicyByName("smarts");
    report(*smarts);
    auto scache = core::makePolicyByName("scache");
    report(*scache);
    auto sbp = core::makePolicyByName("sbp");
    report(*sbp);
    auto rcache = core::makePolicyByName("rcache100");
    report(*rcache);
    auto rbp = core::makePolicyByName("rbp");
    report(*rbp);
    auto rsr20 = core::makePolicyByName("rsr20");
    report(*rsr20);
    auto rsr100 = core::makePolicyByName("rsr100");
    report(*rsr100);

    return 0;
}
