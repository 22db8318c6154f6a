/**
 * @file
 * Parallel policy-sweep benchmark: runs the full Table-2 policy matrix
 * through harness::runPolicySweep twice — once with one pool worker
 * (--jobs 1) and once with four — verifies the two produce bit-identical
 * per-cluster IPC and estimates, and records the wall-clock comparison
 * in BENCH_parallel_replay.json.
 *
 * Each sweep runs one functional pass on the calling thread; the grain
 * is one task per (region, policy), each warming that policy's machine
 * from the shared region log and measuring its cluster. The calling
 * thread also runs queued tasks while it waits, so the jobs-1 sweep
 * (the JSON's `serial_*` keys) runs its consumer tasks on two threads,
 * its one worker and the calling thread, and the jobs-4 sweep on five.
 * Beside each sweep's wall time the bench records what bounds it: the
 * producer's seconds (the one functional pass, the critical path) and
 * the consumers' summed seconds (the work the threads spread), both
 * from the sweep entries. The JSON records the machine's core count
 * next to the measured speedup — on a single-core container the two
 * sweeps cost the same and `speedup` honestly reports ~1.0.
 */

#include <cstdio>
#include <thread>

#include "bench_common.hh"
#include "harness/json.hh"
#include "harness/parallel_run.hh"
#include "util/args.hh"
#include "util/fileio.hh"
#include "util/table.hh"
#include "util/timer.hh"

namespace
{

using namespace rsr;

/** A sweep's producer seconds and its consumers' summed seconds. */
struct SweepSplit
{
    double producer = 0.0;
    double consumers = 0.0;
};

SweepSplit
splitOf(const std::vector<harness::PolicySweepEntry> &sweep)
{
    // Each entry's seconds are its consumer's own plus 1/N of the
    // producer's, so the entries sum to the producer plus the consumers.
    SweepSplit s;
    s.producer = sweep.front().producerSeconds;
    for (const auto &e : sweep)
        s.consumers += e.result.seconds;
    s.consumers -= s.producer;
    return s;
}

int
runBench(const ArgParser &args)
{
    const bool baseline = args.has("baseline");
    const std::string out =
        args.get("out", "BENCH_parallel_replay.json");
    const unsigned cores = std::thread::hardware_concurrency();

    // A baseline stamped on a 1-core runner would record a meaningless
    // ~1.0 "speedup" that multicore CI runs then get compared against.
    // Refuse outright: baselines only come from machines that can
    // actually run replays in parallel.
    if (baseline && cores <= 1) {
        std::fprintf(stderr,
                     "parallel_replay: refusing to write a baseline on a "
                     "%u-core machine; parallel speedup is unmeasurable "
                     "here — rerun --baseline on a multicore runner\n",
                     cores);
        return 1;
    }

    bench::banner("Parallel cluster replay: 1 worker vs 4 workers",
                  "sweep determinism + speedup (each sweep's calling "
                  "thread also runs consumer tasks)");

    auto setups = bench::prepareWorkloads(false, 1'000'000);
    setups.erase(setups.begin() + 1, setups.end());
    setups[0].cfg.regimen = {20, 2000};
    const auto &setup = setups[0];

    const std::vector<std::string> policies{
        "none",     "fp20",     "fp40",      "fp80", "scache", "sbp",
        "smarts",   "rcache20", "rcache40",  "rcache80", "rcache100",
        "rbp",      "rsr20",    "rsr40",     "rsr80", "rsr100"};
    const unsigned jobs = 4;

    WallTimer serial_timer;
    const auto serial =
        harness::runPolicySweep(setup.program, policies, setup.cfg, 1);
    const double serial_seconds = serial_timer.seconds();

    WallTimer parallel_timer;
    const auto parallel =
        harness::runPolicySweep(setup.program, policies, setup.cfg,
                                jobs);
    const double parallel_seconds = parallel_timer.seconds();

    bool identical = true;
    TextTable t({"policy", "jobs-1 ipc", "jobs-4 ipc", "identical"});
    for (std::size_t i = 0; i < policies.size(); ++i) {
        const bool same =
            serial[i].result.clusterIpc == parallel[i].result.clusterIpc &&
            serial[i].result.estimate.mean ==
                parallel[i].result.estimate.mean &&
            serial[i].result.estimate.ciLow ==
                parallel[i].result.estimate.ciLow &&
            serial[i].result.estimate.ciHigh ==
                parallel[i].result.estimate.ciHigh;
        identical = identical && same;
        t.addRow({serial[i].displayName,
                  TextTable::num(serial[i].result.estimate.mean),
                  TextTable::num(parallel[i].result.estimate.mean),
                  same ? "yes" : "NO"});
    }
    t.print();

    const SweepSplit serial_split = splitOf(serial);
    const SweepSplit parallel_split = splitOf(parallel);
    const double speedup =
        parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;
    // A scaling claim only means something with real parallel hardware:
    // on a 1-core runner the pooled sweep cannot beat serial, so the
    // record flags the speedup as unusable and consumers (the perf-smoke
    // gate) must skip scaling assertions rather than fail honestly-flat
    // numbers.
    const bool scaling_valid = cores > 1;
    std::printf("\njobs-1 sweep  %.3fs  (producer %.3fs, consumers %.3fs; "
                "1 worker + calling thread)\n"
                "jobs-%u sweep  %.3fs  (producer %.3fs, consumers %.3fs; "
                "%u workers + calling thread on %u cores)\n"
                "speedup       %.2fx\n",
                serial_seconds, serial_split.producer,
                serial_split.consumers, jobs, parallel_seconds,
                parallel_split.producer, parallel_split.consumers, jobs,
                cores, speedup);
    if (!scaling_valid)
        std::printf("note: only %u hardware core(s) visible; the jobs-%u "
                    "sweep cannot run faster than the jobs-1 one here\n",
                    cores, jobs);
    if (!identical)
        std::printf("ERROR: jobs-%u results diverged from jobs-1\n", jobs);

    auto j = bench::benchJson("parallel_replay", jobs);
    j.put("workload", setup.params.name)
        .put("policies", static_cast<std::uint64_t>(policies.size()))
        .put("clusters",
             static_cast<std::uint64_t>(setup.cfg.regimen.numClusters))
        .put("total_insts", setup.cfg.totalInsts)
        .put("serial_seconds", serial_seconds)
        .put("serial_producer_seconds", serial_split.producer)
        .put("serial_consumer_seconds", serial_split.consumers)
        .put("parallel_seconds", parallel_seconds)
        .put("parallel_producer_seconds", parallel_split.producer)
        .put("parallel_consumer_seconds", parallel_split.consumers)
        .put("speedup", speedup)
        .putBool("parallel_scaling_valid", scaling_valid)
        .putBool("identical", identical);
    atomicWriteFile(out, j.str() + "\n");
    std::printf("wrote %s\n", out.c_str());
    return identical ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return rsr::runProgram(
        {"parallel_replay",
         {{"parallel_replay",
           "Table-2 sweep, 1 pool worker against 4",
           {{"out", "FILE"}, {"baseline", ""}},
           runBench}},
         "--out defaults to BENCH_parallel_replay.json; --baseline is\n"
         "refused on a 1-core machine\n"},
        argc, argv);
}
