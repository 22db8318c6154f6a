/**
 * @file
 * Figure 6: branch-predictor warm-up only. Compares Reverse Trace Branch
 * Predictor Reconstruction (RBP, on-demand over the logged skip-region
 * trace) against SMARTS branch-predictor-only warming (SBP); the caches
 * are left stale in every run. The paper's findings: both methods land
 * near each other (22.3% vs 22.2% relative error — the large residual is
 * the cold caches), with RBP averaging a 1.48x speedup over SBP.
 */

#include "bench_common.hh"

int
main()
{
    using namespace rsr;
    bench::banner("Figure 6: branch predictor warm-up only (RBP vs SBP)",
                  "Bryan/Rosier/Conte ISPASS'07, Figure 6");

    const auto setups = bench::prepareWorkloads(true);

    bench::runAndPrintFigure("Figure 6", {"rbp", "sbp"}, setups, "SBP");
    return 0;
}
