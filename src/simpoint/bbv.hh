/**
 * @file
 * Basic-block-vector profiling for SimPoint-style phase analysis
 * (Sherwood et al., ASPLOS 2002; SimPoint v3.2 defaults). One functional
 * pass counts, for each instruction window, the instructions executed in
 * each static basic block. SimPoint profiles contiguous fixed-size
 * intervals, frequency-normalizes the vectors and randomly projects them
 * to a small dimension before clustering; the BBV estimator proxy
 * (simpoint/proxy.hh) profiles the candidate clusters.
 */

#ifndef RSR_SIMPOINT_BBV_HH
#define RSR_SIMPOINT_BBV_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/regimen.hh"
#include "func/program.hh"
#include "util/deadline.hh"

namespace rsr::simpoint
{

/** Sparse basic-block vector for one interval (window). */
struct IntervalBbv
{
    /**
     * (block dimension id, instructions executed in that block),
     * sorted by block id so downstream floating-point accumulation
     * visits entries in a deterministic order.
     */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> counts;
    std::uint64_t totalInsts = 0;
};

/** Profile of a whole run, or of a list of windows. */
struct BbvProfile
{
    /** The interval size of an interval profile; 0 for windows. */
    std::uint64_t intervalSize = 0;
    std::vector<IntervalBbv> intervals;
    /** Number of distinct basic blocks (the sparse dimensionality). */
    std::uint32_t numBlocks = 0;
    /** Leader PC of each block dimension id. */
    std::vector<std::uint64_t> blockLeaders;
};

/**
 * The basic-block-vector pass: execute @p program up to the end of the
 * last of @p windows and count, per window, the instructions executed in
 * each basic block. Blocks are delimited by control transfers and
 * identified by their leader PC, which is tracked over every instruction,
 * so a window that starts mid-block credits that block's real leader.
 * Dimension ids are assigned first-seen over windowed instructions, so
 * the profile is deterministic. Windows must be sorted and
 * non-overlapping (UserError otherwise). If the program halts, the
 * profile ends with the (partial) window it halted in. Polls @p deadline
 * like the skip loop (TimeoutError on expiry).
 */
BbvProfile profileBbv(const func::Program &program,
                      const std::vector<core::Cluster> &windows,
                      const Deadline *deadline = nullptr);

/**
 * Profile the first @p total_insts instructions of @p program with
 * interval size @p interval_size: profileBbv() over contiguous windows.
 */
BbvProfile profileBbv(const func::Program &program,
                      std::uint64_t total_insts,
                      std::uint64_t interval_size);

/**
 * Frequency-normalize and randomly project a profile to @p dims
 * dimensions (SimPoint v3.2 projects to 15). Deterministic in @p seed.
 */
std::vector<std::vector<double>> projectBbv(const BbvProfile &profile,
                                            unsigned dims,
                                            std::uint64_t seed);

} // namespace rsr::simpoint

#endif // RSR_SIMPOINT_BBV_HH
