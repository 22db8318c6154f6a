/**
 * @file
 * Live-points study (extension; after the paper's reference [18],
 * Wenisch et al., ISPASS 2006). Captures a live-point store once per
 * workload — warm microarchitectural state plus each cluster's committed
 * trace, content-addressed and deduplicated — then replays the whole
 * sample under several core configurations. Shows where checkpointing
 * beats re-warming: the capture pass costs about one sampled run, every
 * further design point costs only the cluster measurements, while
 * SMARTS/RSR pay functional fast-forwarding plus warm-up for every
 * design point.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/livepoint_store.hh"
#include "harness/parallel_run.hh"
#include "util/table.hh"
#include "util/timer.hh"

int
main()
{
    using namespace rsr;
    bench::banner("Live-points: checkpointed sampling design sweep",
                  "extension; cf. paper reference [18]");

    const auto setups = bench::prepareWorkloads(false);

    struct DesignPoint
    {
        const char *name;
        unsigned issueWidth;
        unsigned robSize;
    };
    const DesignPoint sweep[] = {
        {"narrow (2-wide, ROB 32)", 2, 32},
        {"baseline (4-wide, ROB 64)", 4, 64},
        {"wide (8-wide, ROB 128)", 8, 128},
    };

    double total_capture = 0, total_replay = 0, total_rewarm = 0;
    std::uint64_t total_storage = 0;

    TextTable t({"workload", "capture(s)", "storage(MB)",
                 "replay 3 pts(s)", "re-warm 3 pts(s)", "IPC narrow",
                 "IPC base", "IPC wide"});
    for (const auto &s : setups) {
        // Capture once under SMARTS warming (snapshots then fully
        // determine each cluster's initial state).
        auto smarts = core::FunctionalWarmup::smarts();
        WallTimer cap_timer;
        const auto store = core::LivePointStore::create(
            s.program, *smarts, s.cfg, s.params.name, "smarts");
        const double capture_s = cap_timer.seconds();

        // Replay the design sweep from the stored live-points.
        double replay_s = 0;
        double ipcs[3] = {};
        for (unsigned i = 0; i < 3; ++i) {
            auto machine = store.meta().machine;
            machine.core.issueWidth = sweep[i].issueWidth;
            machine.core.robSize = sweep[i].robSize;
            const auto r = harness::replayStoreParallel(store, machine, 1);
            replay_s += r.seconds;
            ipcs[i] = r.estimate.mean;
        }

        // The conventional alternative: a full sampled run per point.
        double rewarm_s = 0;
        for (unsigned i = 0; i < 3; ++i) {
            auto cfg = s.cfg;
            cfg.machine.core.issueWidth = sweep[i].issueWidth;
            cfg.machine.core.robSize = sweep[i].robSize;
            auto policy = core::FunctionalWarmup::smarts();
            rewarm_s += core::runSampled(s.program, *policy, cfg).seconds;
        }

        const std::uint64_t storage = store.serialize().size();
        total_capture += capture_s;
        total_replay += replay_s;
        total_rewarm += rewarm_s;
        total_storage += storage;

        t.addRow({s.params.name, TextTable::num(capture_s, 3),
                  TextTable::num(storage / 1048576.0, 1),
                  TextTable::num(replay_s, 3),
                  TextTable::num(rewarm_s, 3), TextTable::num(ipcs[0]),
                  TextTable::num(ipcs[1]), TextTable::num(ipcs[2])});
    }
    t.print();

    std::printf("\ntotals: capture %.2fs + replay %.2fs = %.2fs for 3 "
                "design points vs %.2fs re-warming each point "
                "(%.1fx cheaper per additional point; %.1f MB stored)\n",
                total_capture, total_replay,
                total_capture + total_replay, total_rewarm,
                total_rewarm / 3.0 / (total_replay / 3.0),
                total_storage / 1048576.0);
    return 0;
}
