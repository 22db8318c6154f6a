/**
 * @file
 * Ablation study of the design choices DESIGN.md calls out, beyond the
 * paper's own experiments:
 *
 *  - the paper's ambiguous-counter tie-break rules vs. the apply-to-stale
 *    extension (compose the inferred update function onto the stale
 *    counter value instead of guessing weak/middle states);
 *  - the reconstruction percentage (20% vs 100%) interacting with each
 *    resolution mode;
 *  - an MRRL-style profiled warm-up baseline (Haskins & Skadron), which
 *    reaches similar territory but needs a profiling pass and pins the
 *    cluster schedule;
 *  - SMARTS as the accuracy reference.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/reuse_latency.hh"
#include "util/table.hh"

int
main()
{
    using namespace rsr;
    bench::banner("Ablation: RSR variants and an MRRL baseline",
                  "design-choice ablations beyond the paper");

    const auto setups = bench::prepareWorkloads(true);

    const std::vector<std::string> policies{"rsr20", "rsr20+stale",
                                            "rsr100", "rsr100+stale",
                                            "smarts"};
    bench::printFigure("Ablation", bench::runMatrix(policies, setups),
                       policies, setups, "smarts");

    // MRRL/BLRL profile the exact cluster schedule the sampled run draws
    // (RegionConsumer::prepare hands it to the policy); time(s)
    // includes that pass.
    for (const auto kind :
         {core::ReuseLatencyKind::Mrrl, core::ReuseLatencyKind::Blrl}) {
        std::printf("\n%s baseline (99.5th-percentile reuse coverage)\n",
                    kind == core::ReuseLatencyKind::Mrrl ? "MRRL" : "BLRL");
        TextTable t({"workload", "rel-error", "time(s)", "profile insts",
                     "mean warm len"});
        for (const auto &s : setups) {
            core::FunctionalWarmup policy(kind, 0.995);
            const auto r = core::runSampled(s.program, policy, s.cfg);
            const auto &profile = policy.profile();
            double mean_len = 0;
            for (auto l : profile.warmupLengths)
                mean_len += static_cast<double>(l);
            mean_len /= static_cast<double>(profile.warmupLengths.size());
            t.addRow({s.params.name,
                      TextTable::num(r.estimate.relativeError(s.trueIpc)),
                      TextTable::num(r.seconds, 3),
                      std::to_string(profile.profiledInsts),
                      TextTable::num(mean_len, 0)});
        }
        t.print();
    }
    std::printf("note: the profiling pass (column 4) is extra work the "
                "reverse method does not pay, and must be redone whenever "
                "cluster positions change.\n");
    return 0;
}
