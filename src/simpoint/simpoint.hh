/**
 * @file
 * End-to-end SimPoint flow (the paper's Section-5 comparison baseline):
 * BBV profiling at a chosen interval size, clustering with up to 30
 * clusters, selection of one representative interval per cluster with
 * weights, and simulation of the chosen points through the one sampled
 * run pipeline (core::runSampled) — optionally applying SMARTS full
 * functional warming while skipping to each point (the paper's
 * "50K-SMARTS" / "10M-SMARTS" variants).
 */

#ifndef RSR_SIMPOINT_SIMPOINT_HH
#define RSR_SIMPOINT_SIMPOINT_HH

#include <cstdint>
#include <vector>

#include "core/machine.hh"
#include "func/program.hh"
#include "simpoint/bbv.hh"
#include "simpoint/kmeans.hh"

namespace rsr::simpoint
{

/** SimPoint analysis knobs (defaults follow SimPoint v3.2 and the paper). */
struct SimPointConfig
{
    std::uint64_t intervalSize = 2000;
    unsigned maxK = 30;
    unsigned projectedDims = 15;
    double bicThreshold = 0.9;
    std::uint64_t seed = 0x51a9;
};

/** The chosen simulation points. */
struct SimPointSelection
{
    std::uint64_t intervalSize = 0;
    unsigned k = 0;
    /** Interval indices, sorted ascending. */
    std::vector<std::uint64_t> intervals;
    /** Matching weights (cluster population fractions). */
    std::vector<double> weights;
};

/**
 * A policy limit on the intervals one profile holds: the profile keeps
 * a vector per interval and k-means clusters them all. `rsr_sim
 * simpoint --workload gcc` at 2^17 intervals of 2,000 instructions
 * peaks about 0.8 KB of RSS per interval (3.4 KB at 20,000-instruction
 * intervals) and takes about 0.43 ms per interval on a 4-vCPU Xeon VM,
 * so this limit keeps a 2,000-instruction profile near 0.85 GB and
 * 8 minutes, and refuses requests such as 10^12 one-instruction
 * intervals before anything is allocated.
 */
constexpr std::uint64_t kMaxIntervals = std::uint64_t{1} << 20;

/** Analyze @p program and pick simulation points. Throws UserError
 *  naming the flag for an empty population (--insts), interval
 *  (--interval) or cluster limit (--max-k), and naming --insts and
 *  --interval for more than kMaxIntervals intervals. */
SimPointSelection pickSimPoints(const func::Program &program,
                                std::uint64_t total_insts,
                                const SimPointConfig &config);

/** Result of simulating the chosen points. */
struct SimPointRunResult
{
    /** Weighted IPC estimate. */
    double ipc = 0.0;
    double seconds = 0.0;
    std::uint64_t hotInsts = 0;
};

/**
 * Simulate the selected points in execution order: the points become an
 * explicit schedule of {interval x size, size} clusters that
 * core::runSampled measures, and their cluster IPCs are weighted. The
 * skips run under SMARTS warming when @p smarts_warmup is set (every
 * skipped branch and memory operation is functionally applied to the
 * branch predictor and caches), otherwise state is left stale.
 */
SimPointRunResult runSimPoints(const func::Program &program,
                               const SimPointSelection &selection,
                               bool smarts_warmup,
                               const core::MachineConfig &machine_config);

} // namespace rsr::simpoint

#endif // RSR_SIMPOINT_SIMPOINT_HH
