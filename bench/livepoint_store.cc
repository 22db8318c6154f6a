/**
 * @file
 * Live-point store benchmark, and the source of the perf-smoke CI
 * baseline BENCH_livepoint_store.json.
 *
 * Measures the producer/consumer split's economics on one workload
 * (gcc under RSR warming): the one-time cost of `mklvpt`-style capture,
 * the per-sweep-point cost of replaying the stored clusters, and the
 * conventional alternative — a full sampled run that repeats functional
 * fast-forwarding and warm-up every time. Before timing anything it
 * verifies the invariant the whole subsystem rests on: the replayed
 * per-cluster IPCs must equal the direct run's bit-for-bit.
 *
 * Wall-clock seconds are useless as a CI gate across runners, so the
 * gated `norm_*` keys are machine-cancelling ratios: `norm_replay_speedup`
 * (direct run time / replay time — the paper's reason to store
 * live-points at all) and `norm_replay_fraction_of_capture` (replay time
 * relative to capture, the amortization rate of the one-time pass). The
 * storage economics (bytes/cluster, dedup ratio) are deterministic and
 * reported for the record.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "bench_common.hh"
#include "core/livepoint_store.hh"
#include "core/warmup.hh"
#include "harness/parallel_run.hh"
#include "util/args.hh"
#include "util/fileio.hh"
#include "util/timer.hh"

namespace
{

using namespace rsr;

/** Time one call of @p run, keeping the lowest time so far in @p best
 *  (0 = none yet): interference only ever slows a run down. */
template <typename Fn>
void
keepBest(double &best, Fn &&run)
{
    WallTimer timer;
    run();
    const double s = timer.seconds();
    best = best == 0.0 ? s : std::min(best, s);
}

int
runBench(const ArgParser &args)
{
    const bool quick = args.has("quick");
    const std::string out_path =
        args.get("out", "BENCH_livepoint_store.json");

    bench::banner("Live-point store: capture once, replay per design "
                  "point",
                  quick ? "quick mode (CI perf-smoke sizing)"
                        : "full mode");

    const std::string workload = "gcc";
    const std::string policy_name = "rsr40";
    const unsigned jobs = 1; // isolate capture-vs-replay, not scaling

    // The skip:measure ratio sets the achievable speedup (replay skips
    // the functional front half entirely), so the regimen samples a few
    // percent of the population, like the paper's Table-1 regimens.
    auto setups = bench::prepareWorkloads(false, quick ? 2'000'000
                                                       : 4'000'000);
    std::size_t idx = 0;
    for (std::size_t i = 0; i < setups.size(); ++i)
        if (setups[i].params.name == workload)
            idx = i;
    bench::WorkloadSetup setup = std::move(setups[idx]);
    setup.cfg.regimen = quick ? core::SamplingRegimen{20, 1500}
                              : core::SamplingRegimen{60, 3000};

    // Three timings, each the best of kRounds: the conventional path,
    // where every design point pays functional fast-forwarding +
    // warm-up + measurement; the producer's one capture pass, priced
    // like one direct run; and the consumer's replay of the store, what
    // every further design point costs. They are timed in alternating
    // rounds, so a slow stretch of the host hits every side of the gated
    // ratios alike.
    constexpr unsigned kRounds = 3;
    core::SampledResult direct;
    std::unique_ptr<core::LivePointStore> captured;
    core::SampledResult replayed;
    double direct_s = 0.0;
    double create_s = 0.0;
    double replay_s = 0.0;
    for (unsigned round = 0; round < kRounds; ++round) {
        keepBest(direct_s, [&] {
            auto policy = core::makePolicyByName(policy_name);
            direct = harness::runSampledParallel(setup.program, *policy,
                                                 setup.cfg, jobs);
        });
        keepBest(create_s, [&] {
            auto store_policy = core::makePolicyByName(policy_name);
            captured = std::make_unique<core::LivePointStore>(
                core::LivePointStore::create(setup.program, *store_policy,
                                             setup.cfg, workload,
                                             policy_name));
        });
        keepBest(replay_s, [&] {
            replayed = harness::replayStoreParallel(*captured, jobs);
        });
    }
    const core::LivePointStore &store = *captured;
    std::printf("direct run       %8.3f s  (%zu clusters)\n", direct_s,
                direct.clusterIpc.size());
    std::printf("capture (once)   %8.3f s  (%.1f KB, %.1f KB/cluster, "
                "dedup %.2fx)\n",
                create_s, store.serialize().size() / 1024.0,
                store.bytesPerCluster() / 1024.0, store.dedupRatio());
    std::printf("replay           %8.3f s\n", replay_s);

    // The invariant before any economics: bit-identical statistics.
    bool identical = direct.clusterIpc == replayed.clusterIpc &&
                     direct.estimate.mean == replayed.estimate.mean &&
                     direct.hotCycles == replayed.hotCycles &&
                     direct.branchMispredicts ==
                         replayed.branchMispredicts;
    if (!identical)
        std::printf("ERROR: replay diverged from the direct run\n");

    const double speedup = replay_s > 0.0 ? direct_s / replay_s : 0.0;
    const double replay_frac =
        create_s > 0.0 ? replay_s / create_s : 0.0;
    std::printf("replay speedup   %8.2f x per additional design point\n",
                speedup);

    auto j = bench::benchJson("livepoint_store", jobs);
    j.put("mode", quick ? "quick" : "full")
        .put("workload", workload)
        .put("policy", policy_name)
        .put("clusters",
             static_cast<std::uint64_t>(store.clusterCount()))
        .put("total_insts", setup.cfg.totalInsts)
        .put("store_bytes",
             static_cast<std::uint64_t>(store.serialize().size()))
        .put("bytes_per_cluster", store.bytesPerCluster())
        .put("dedup_ratio", store.dedupRatio())
        .put("direct_seconds", direct_s)
        .put("create_seconds", create_s)
        .put("replay_seconds", replay_s)
        .put("speedup_replay", speedup)
        // Gated ratios: wall-time quotients from the same process, so
        // machine speed cancels (bench_compare only reads norm_*).
        .put("norm_replay_speedup", speedup)
        .put("norm_capture_vs_direct",
             create_s > 0.0 ? direct_s / create_s : 0.0)
        .putBool("identical", identical);
    if (replay_frac > 0.0)
        std::printf("replay costs %.1f%% of one capture pass\n",
                    replay_frac * 100.0);
    atomicWriteFile(out_path, j.str() + "\n");
    std::printf("wrote %s\n", out_path.c_str());
    return identical ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return rsr::runProgram(
        {"livepoint_store",
         {{"livepoint_store",
           "live-point store: capture once, replay per design point",
           {{"quick", ""}, {"out", "FILE"}},
           runBench}},
         "--quick: CI perf-smoke sizing; --out defaults to\n"
         "BENCH_livepoint_store.json\n"},
        argc, argv);
}
