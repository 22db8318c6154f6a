/**
 * @file
 * Figure 7: combined cache + branch-predictor warm-up. Compares no
 * warm-up, fixed-period warming at 20/40/80%, SMARTS warming of both
 * components (S$BP), and Reverse State Reconstruction of both components
 * at 20/40/80/100% (R$BP). The paper's findings: None is cheapest and
 * worst (23% error); S$BP is most accurate (0.9%) and slowest; R$BP
 * achieves speedups of 1.64/1.51/1.25x at 20/40/80% with accuracy close
 * to SMARTS; fixed-period is competitive at 20% but the reverse methods
 * win as percentages rise because logging cost is paid regardless.
 */

#include "bench_common.hh"

int
main()
{
    using namespace rsr;
    bench::banner(
        "Figure 7: combined cache and branch predictor warm-up",
        "Bryan/Rosier/Conte ISPASS'07, Figure 7");

    const auto setups = bench::prepareWorkloads(true);

    bench::runAndPrintFigure("Figure 7",
                             {"none", "fp20", "fp40", "fp80", "smarts",
                              "rsr20", "rsr40", "rsr80", "rsr100"},
                             setups, "S$BP");
    return 0;
}
