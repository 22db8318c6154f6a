/**
 * @file
 * Reuse-latency-profiled warm-up baselines, implemented for comparison
 * with Reverse State Reconstruction (both are discussed in the paper's
 * related-work section):
 *
 *  - **MRRL** (Memory Reference Reuse Latency; Haskins & Skadron, ISPASS
 *    2003) profiles each pre-cluster/cluster *pair*: for every reference
 *    in the window it measures the distance back to the previous touch of
 *    the same location, builds a histogram, and warms the tail of the
 *    skip region long enough to cover a chosen percentile of all reuses.
 *
 *  - **BLRL** (Boundary Line Reuse Latency; Eeckhout, Luo, Bosschere &
 *    John, The Computer Journal 2005) refines MRRL by considering only
 *    references that *originate in the cluster* and whose reuse reaches
 *    back across the cluster boundary into the pre-cluster region — the
 *    only reuses whose state the warm-up can actually repair.
 *
 * Both require a profiling pass over the full dynamic stream, and the
 * profile is valid only for the exact cluster schedule it was computed
 * against — the contrast the paper draws with RSR's no-profiling,
 * on-demand reconstruction. The policy is FunctionalWarmup (warmup.hh)
 * built from a ReuseLatencyKind: it warms each region's profiled tail.
 */

#ifndef RSR_CORE_REUSE_LATENCY_HH
#define RSR_CORE_REUSE_LATENCY_HH

#include <cstdint>
#include <vector>

#include "core/regimen.hh"
#include "func/program.hh"
#include "util/deadline.hh"

namespace rsr::core
{

/** Which reuse-latency variant to profile. */
enum class ReuseLatencyKind : std::uint8_t
{
    Mrrl, ///< all reuses inside the pre-cluster + cluster window
    Blrl  ///< cluster-originated reuses crossing the boundary only
};

/** Profile output: one warm-up length per cluster. */
struct ReuseLatencyProfile
{
    ReuseLatencyKind kind = ReuseLatencyKind::Mrrl;
    /** Instructions of warming before each cluster (parallel to the
     *  schedule used when profiling). */
    std::vector<std::uint64_t> warmupLengths;
    /** Profiling cost, in instructions functionally executed. */
    std::uint64_t profiledInsts = 0;
};

/**
 * Profile a workload for per-skip warm-up lengths.
 *
 * @param program    the workload
 * @param schedule   the cluster schedule the sampled run will use
 * @param kind       MRRL or BLRL accounting
 * @param percentile fraction of reuses the warm-up must cover
 * @param deadline   polled every 64K instructions (TimeoutError on
 *                   expiry); null never expires
 */
ReuseLatencyProfile
profileReuseLatency(const func::Program &program,
                    const std::vector<Cluster> &schedule,
                    ReuseLatencyKind kind, double percentile = 0.995,
                    const Deadline *deadline = nullptr);

} // namespace rsr::core

#endif // RSR_CORE_REUSE_LATENCY_HH
