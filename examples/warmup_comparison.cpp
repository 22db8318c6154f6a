/**
 * @file
 * Compare every Table-2 warm-up method on one workload: relative error
 * against the true IPC, the 95% confidence-interval test, wall time, and
 * warm-side work. A one-workload miniature of the paper's evaluation.
 *
 *   ./warmup_comparison [workload] [total_insts]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/sampled_sim.hh"
#include "core/warmup.hh"
#include "util/table.hh"
#include "workload/synthetic.hh"

int
main(int argc, char **argv)
{
    using namespace rsr;

    const std::string name = argc > 1 ? argv[1] : "parser";
    const std::uint64_t total =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 3'000'000ull;

    const auto program =
        workload::buildSynthetic(workload::standardWorkloadParams(name));

    core::SampledConfig cfg;
    cfg.totalInsts = total;
    cfg.regimen = {60, 3000};
    cfg.machine = core::MachineConfig::scaledDefault();

    std::printf("workload %s: computing true IPC over %llu insts...\n",
                name.c_str(), static_cast<unsigned long long>(total));
    const double true_ipc =
        core::runFull(program, total, cfg.machine).ipc();
    std::printf("true IPC = %.4f\n\n", true_ipc);

    TextTable t({"method", "IPC", "rel-error", "CI", "time(s)",
                 "warm-updates", "logged"});
    for (const std::string &policy_name : core::table2PolicyNames()) {
        const auto policy = core::makePolicyByName(policy_name);
        const auto r = core::runSampled(program, *policy, cfg);
        t.addRow({policy->name(), TextTable::num(r.estimate.mean),
                  TextTable::num(r.estimate.relativeError(true_ipc)),
                  r.estimate.passesCi(true_ipc) ? "pass" : "fail",
                  TextTable::num(r.seconds, 3),
                  std::to_string(r.warmWork.totalUpdates()),
                  std::to_string(r.warmWork.loggedRecords)});
    }
    t.print();
    return 0;
}
