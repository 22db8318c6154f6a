/**
 * @file
 * Figure 8: Reverse State Reconstruction vs SMARTS, per benchmark.
 * Plots per-workload relative error and simulation time for R$BP at
 * 20/40/80/100% against S$BP. The paper's findings: at 20% the average
 * relative error with respect to SMARTS is 0.3% (min 0.01%, max 1.9%),
 * and simulation time grows with the warm-up percentage.
 */

#include <cmath>
#include <cstdio>

#include "bench_common.hh"
#include "util/table.hh"

int
main()
{
    using namespace rsr;
    bench::banner("Figure 8: Reverse State Reconstruction vs SMARTS",
                  "Bryan/Rosier/Conte ISPASS'07, Figure 8");

    const auto setups = bench::prepareWorkloads(true);

    bench::runAndPrintFigure("Figure 8",
                             {"rsr20", "rsr40", "rsr80", "rsr100", "smarts"},
                             setups, "S$BP");

    // The paper's headline metric: per-workload relative error of R$BP
    // with respect to the SMARTS estimate (not the true IPC).
    auto smarts = core::makePolicyByName("smarts");
    const auto rs = bench::runPolicy(*smarts, setups);
    std::printf("\nR$BP (20%%) relative error with respect to SMARTS\n");
    auto r20 = core::makePolicyByName("rsr20");
    const auto rr = bench::runPolicy(*r20, setups);
    TextTable t({"workload", "S$BP IPC", "R$BP(20%) IPC", "RE vs SMARTS"});
    double sum = 0, worst = 0;
    for (std::size_t i = 0; i < setups.size(); ++i) {
        const double a = rs.perWorkload[i].estimate.mean;
        const double b = rr.perWorkload[i].estimate.mean;
        const double re = std::fabs(a - b) / a;
        sum += re;
        worst = std::max(worst, re);
        t.addRow({setups[i].params.name, TextTable::num(a),
                  TextTable::num(b), TextTable::num(re)});
    }
    t.print();
    std::printf("average RE vs SMARTS: %.4f   max: %.4f   (paper: 0.003 "
                "avg, 0.019 max)\n",
                sum / static_cast<double>(setups.size()), worst);
    return 0;
}
