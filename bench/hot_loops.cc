/**
 * @file
 * Hot-loop throughput benchmark, and the source of the perf-smoke CI
 * baseline (BENCH_hot_loops.json).
 *
 * Measures the three inner loops this simulator spends its life in —
 * functional execute (pre-decoded step), the cache/warming fast path,
 * and the RSR skip-log append + reverse reconstruction scan — plus one
 * end-to-end quick-mode run of the full Table-2 policy matrix.
 *
 * Absolute rates are useless as a CI gate (runners differ wildly), so
 * every metric is also reported normalized against a fixed integer
 * calibration loop measured in the same process: `norm_*` is
 * (metric rate) / (calibration rate), a dimensionless ratio that mostly
 * cancels machine speed. The perf-smoke job compares the `norm_*` keys
 * against the committed baseline with tools/bench_compare.
 *
 * Flags: --quick (CI-sized inputs), --out FILE (default
 * BENCH_hot_loops.json in the current directory).
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_common.hh"
#include "cache/hierarchy.hh"
#include "core/cache_reconstructor.hh"
#include "core/skip_log.hh"
#include "func/funcsim.hh"
#include "harness/json.hh"
#include "util/args.hh"
#include "util/error.hh"
#include "util/fileio.hh"
#include "util/timer.hh"

namespace
{

using namespace rsr;

/**
 * Best-of-N: rerun a rate measurement and keep the fastest. Transient
 * scheduler interference only ever makes a run slower, so the max is a
 * far more stable estimator than any single run on a shared CPU.
 */
template <typename Fn>
double
bestOf(unsigned reps, Fn &&measure)
{
    double best = 0.0;
    for (unsigned i = 0; i < reps; ++i)
        best = std::max(best, measure());
    return best;
}

/**
 * Fixed integer spin loop (FNV-1a over a counter): the per-machine speed
 * yardstick all other rates are normalized by.
 */
double
calibrationMopsPerSec(std::uint64_t iters)
{
    WallTimer timer;
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint64_t i = 0; i < iters; ++i) {
        h ^= i;
        h *= 0x100000001b3ull;
    }
    const double secs = timer.seconds();
    // Keep the result observable so the loop cannot be elided.
    if (h == 0)
        std::printf("calibration hash collision\n");
    return static_cast<double>(iters) / secs / 1e6;
}

/** Functional skip-loop throughput: step(nullptr) over the workload. */
double
funcStepMinstsPerSec(const func::Program &program, std::uint64_t insts)
{
    func::FuncSim fs(program);
    WallTimer timer;
    std::uint64_t done = 0;
    while (done < insts) {
        if (!fs.step(nullptr)) {
            fs.reset();
            continue;
        }
        ++done;
    }
    return static_cast<double>(done) / timer.seconds() / 1e6;
}

/**
 * Cache-hierarchy warming fast path: the same warmAccess stream a
 * functional-warming policy generates, over a deterministic mix of
 * fetch / load / store addresses with realistic locality.
 */
double
warmAccessMopsPerSec(std::uint64_t accesses)
{
    cache::MemoryHierarchy hier(cache::HierarchyParams::paperDefault());
    std::uint64_t lcg = 0x2545f4914f6cdd1dull;
    WallTimer timer;
    for (std::uint64_t i = 0; i < accesses; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t r = lcg >> 33;
        // ~1/8 instruction-line touches, ~1/4 stores, rest loads, over a
        // 1 MB data footprint and a 64 KB code footprint.
        if ((r & 7) == 0)
            hier.warmAccess(0x400000 + (r & 0xffc0), false, true);
        else
            hier.warmAccess(0x10000000 + (r & 0xfffff8), (r & 6) == 2,
                            false);
    }
    return static_cast<double>(accesses) / timer.seconds() / 1e6;
}

/**
 * RSR path: skip-log append plus the reverse reconstruction scan, the
 * two sides of the paper's storage-for-speed trade.
 */
double
rsrMrefsPerSec(const func::Program &program, std::uint64_t log_refs,
               unsigned scans)
{
    func::FuncSim fs(program);
    core::MemLog log;
    log.reserve(log_refs);
    cache::MemoryHierarchy hier(cache::HierarchyParams::paperDefault());
    const std::uint64_t iline_mask =
        ~std::uint64_t{hier.il1().params().lineBytes - 1};

    WallTimer timer;
    std::uint64_t last_iblock = ~std::uint64_t{0};
    func::DynInst d;
    while (log.size() < log_refs) {
        if (!fs.step(&d)) {
            fs.reset();
            continue;
        }
        const std::uint64_t blk = d.pc & iline_mask;
        if (blk != last_iblock)
            log.append(d.pc, d.pc, true, false);
        last_iblock = blk;
        if (d.inst.isMem())
            log.append(d.pc, d.effAddr, false, d.inst.isStore());
    }
    std::uint64_t refs = log.size();
    for (unsigned s = 0; s < scans; ++s) {
        const auto res = core::reconstructCaches(hier, log, 1.0);
        refs += res.refsScanned;
    }
    return static_cast<double>(refs) / timer.seconds() / 1e6;
}

/**
 * End-to-end quick-mode Table-2 matrix: every policy, one workload,
 * sampled exactly as `rsr_sim run --jobs 1` runs it. Returns instructions
 * simulated (skip + measure) per second of wall time.
 */
double
table2MinstsPerSec(const bench::WorkloadSetup &setup)
{
    std::uint64_t total_insts = 0;
    WallTimer timer;
    for (const auto &policy : core::makeTable2Policies()) {
        const auto r =
            core::runSampled(setup.program, *policy, setup.cfg);
        total_insts += r.skippedInsts + r.hotInsts;
        rsr_assert(!r.clusterIpc.empty(), "sampled run produced no "
                   "clusters");
    }
    return static_cast<double>(total_insts) / timer.seconds() / 1e6;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rsr;
    ArgParser args(argc, argv);
    const bool quick = args.has("quick");
    const std::string out_path = args.get("out", "BENCH_hot_loops.json");

    bench::banner("Hot-loop throughput: func step, cache warm, RSR scan",
                  quick ? "quick mode (CI perf-smoke sizing)"
                        : "full mode");

    // Sizes: quick mode finishes in a few seconds on a CI runner while
    // staying long enough that rates are stable to a few percent.
    const std::uint64_t calib_iters = quick ? 200'000'000 : 800'000'000;
    const std::uint64_t func_insts = quick ? 8'000'000 : 32'000'000;
    const std::uint64_t warm_accesses = quick ? 8'000'000 : 32'000'000;
    const std::uint64_t rsr_refs = quick ? 2'000'000 : 8'000'000;
    const unsigned rsr_scans = 4;

    auto setups = bench::prepareWorkloads(false, quick ? 1'000'000
                                                       : 4'000'000);
    std::size_t gcc_idx = 0;
    for (std::size_t i = 0; i < setups.size(); ++i)
        if (setups[i].params.name == "gcc")
            gcc_idx = i;
    bench::WorkloadSetup setup = std::move(setups[gcc_idx]);
    setup.cfg.regimen = quick ? core::SamplingRegimen{10, 2000}
                              : core::SamplingRegimen{40, 2000};

    const double calib = bestOf(3, [&] {
        return calibrationMopsPerSec(calib_iters);
    });
    std::printf("calibration      %8.1f Mops/s\n", calib);

    const double func_rate = bestOf(3, [&] {
        return funcStepMinstsPerSec(setup.program, func_insts);
    });
    std::printf("func step        %8.1f Minst/s\n", func_rate);

    const double warm_rate = bestOf(3, [&] {
        return warmAccessMopsPerSec(warm_accesses);
    });
    std::printf("cache warm       %8.1f Macc/s\n", warm_rate);

    const double rsr_rate = bestOf(3, [&] {
        return rsrMrefsPerSec(setup.program, rsr_refs, rsr_scans);
    });
    std::printf("rsr log+scan     %8.1f Mref/s\n", rsr_rate);

    const double e2e_rate = bestOf(2, [&] {
        return table2MinstsPerSec(setup);
    });
    std::printf("table2 end2end   %8.1f Minst/s (16 policies on %s)\n",
                e2e_rate, setup.params.name.c_str());

    auto j = bench::benchJson("hot_loops", 1);
    j.put("mode", quick ? "quick" : "full")
        .put("workload", setup.params.name)
        .put("calib_mops", calib)
        .put("func_minsts", func_rate)
        .put("warm_maccess", warm_rate)
        .put("rsr_mrefs", rsr_rate)
        .put("e2e_minsts", e2e_rate)
        .put("norm_func", func_rate / calib)
        .put("norm_warm", warm_rate / calib)
        .put("norm_rsr", rsr_rate / calib)
        .put("norm_e2e", e2e_rate / calib);
    atomicWriteFile(out_path, j.str() + "\n");
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
