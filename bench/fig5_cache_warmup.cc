/**
 * @file
 * Figure 5: cache warm-up only. Compares Reverse Trace Cache
 * Reconstruction at 20/40/80/100% (R$) against SMARTS cache-only warming
 * (S$); the branch predictor is left stale in every run. The paper's
 * findings: R$ tracks S$ closely in relative error (3.3% vs 3.1% on
 * SPEC), R$ (20%) is the fastest (1.41x over S$), and additional
 * percentage buys little accuracy because temporal locality makes the
 * early skip-region references ineffectual.
 */

#include "bench_common.hh"

int
main()
{
    using namespace rsr;
    bench::banner("Figure 5: cache warm-up only (R$ vs S$)",
                  "Bryan/Rosier/Conte ISPASS'07, Figure 5");

    const auto setups = bench::prepareWorkloads(true);

    bench::runAndPrintFigure("Figure 5",
                             {"rcache20", "rcache40", "rcache80",
                              "rcache100", "scache"},
                             setups, "S$");
    return 0;
}
