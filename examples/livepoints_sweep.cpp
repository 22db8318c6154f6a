/**
 * @file
 * Live-points example: capture a live-point store for one workload
 * (warm state + cluster traces, content-addressed and deduplicated),
 * then sweep core design points by replaying the same sample — no
 * functional fast-forwarding or warm-up is repeated. The replayed
 * baseline matches a conventional deferred sampled run bit-exactly.
 * The CLI equivalents are `rsr_sim mklvpt` and `rsr_sim replay`.
 */

#include <cstdio>

#include "core/livepoint_store.hh"
#include "core/warmup.hh"
#include "harness/parallel_run.hh"
#include "util/table.hh"
#include "workload/synthetic.hh"

int
main(int argc, char **argv)
{
    using namespace rsr;
    const std::string name = argc > 1 ? argv[1] : "vpr";

    const auto program =
        workload::buildSynthetic(workload::standardWorkloadParams(name));
    core::SampledConfig cfg;
    cfg.totalInsts = 2'000'000;
    cfg.regimen = {40, 3000};
    cfg.machine = core::MachineConfig::scaledDefault();

    std::printf("capturing live-points for %s...\n", name.c_str());
    auto smarts = core::FunctionalWarmup::smarts();
    const auto store = core::LivePointStore::create(program, *smarts, cfg,
                                                    name, "smarts");
    std::printf("  %zu points, %.1f MB (state + cluster traces, "
                "dedup %.2fx)\n",
                store.clusterCount(),
                store.serialize().size() / 1048576.0,
                store.dedupRatio());

    TextTable t({"design point", "IPC", "replay(s)"});
    for (const auto &[label, width, rob] :
         {std::tuple<const char *, unsigned, unsigned>{"2-wide/ROB32", 2,
                                                       32},
          {"4-wide/ROB64 (baseline)", 4, 64},
          {"8-wide/ROB128", 8, 128}}) {
        auto machine = cfg.machine;
        machine.core.issueWidth = width;
        machine.core.robSize = rob;
        const auto r = harness::replayStoreParallel(store, machine, 1);
        t.addRow({label, TextTable::num(r.estimate.mean),
                  TextTable::num(r.seconds, 3)});
    }
    t.print();

    // Sanity: the baseline replay equals the sampled run the capture
    // pass mirrors.
    auto smarts2 = core::FunctionalWarmup::smarts();
    const auto conventional = core::runSampled(program, *smarts2, cfg);
    const auto replayed = harness::replayStoreParallel(store, 1);
    std::printf("\nbaseline check: replay IPC %.6f vs sampled run %.6f "
                "(%s)\n",
                replayed.estimate.mean, conventional.estimate.mean,
                replayed.estimate.mean == conventional.estimate.mean
                    ? "bit-exact"
                    : "MISMATCH");
    return replayed.estimate.mean == conventional.estimate.mean ? 0 : 1;
}
