/**
 * @file
 * Table 2: the warm-up method matrix. Instantiates every method compared
 * in the paper (None; fixed-period at 20/40/80%; SMARTS warming of the
 * caches, the branch predictor, or both; Reverse State Reconstruction of
 * the caches at 20/40/80/100%, of the branch predictor, and of both) and
 * smoke-runs each on one workload to demonstrate the full matrix is
 * operational.
 */

#include <cstdio>

#include "bench_common.hh"
#include "harness/parallel_run.hh"
#include "util/table.hh"

int
main()
{
    using namespace rsr;
    bench::banner("Table 2: warm-up method experiments",
                  "Bryan/Rosier/Conte ISPASS'07, Table 2");

    // Small single-workload smoke runs: the goal of this table is the
    // method inventory, not accuracy numbers.
    auto setups = bench::prepareWorkloads(false, 400'000);
    setups.erase(setups.begin() + 1, setups.end());
    setups[0].cfg.regimen = {15, 2000};

    TextTable t({"name", "warms caches", "warms BP", "mechanism",
                 "smoke IPC", "warm-updates", "logged"});
    for (const auto &entry :
         harness::runPolicySweep(setups[0].program,
                                 core::table2PolicyNames(), setups[0].cfg,
                                 1)) {
        const std::string &name = entry.displayName;
        const core::SampledResult &r = entry.result;
        // FP warms both; S$/R$ warm caches; SBP/RBP warm the predictor;
        // S$BP/R$BP warm both.
        const bool cache = name[0] == 'F' ||
                           name.find("$") != std::string::npos;
        const bool bp = name[0] == 'F' ||
                        name.find("BP") != std::string::npos;
        std::string mech = "stale";
        if (name[0] == 'F')
            mech = "functional warming, trailing fraction";
        else if (name[0] == 'S')
            mech = "SMARTS full functional warming";
        else if (name[0] == 'R')
            mech = "reverse state reconstruction";
        t.addRow({name, name == "None" ? "-" : (cache ? "yes" : "no"),
                  name == "None" ? "-" : (bp ? "yes" : "no"), mech,
                  TextTable::num(r.estimate.mean),
                  std::to_string(r.warmWork.totalUpdates()),
                  std::to_string(r.warmWork.loggedRecords)});
    }
    t.print();
    return 0;
}
