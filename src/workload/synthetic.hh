/**
 * @file
 * Parameterized synthetic workload generator.
 *
 * The paper evaluates on nine SPEC CPU2000 benchmarks. Binaries and
 * reference inputs are not redistributable, so this module synthesizes
 * programs in the repository's own ISA whose first-order behaviour spans
 * the same axes that matter for warm-up studies: data working-set size and
 * access pattern (strided streaming, uniform random, pointer chasing),
 * store fraction, conditional-branch predictability (loop-closing vs.
 * data-dependent with a configurable bias), instruction footprint, call
 * frequency/depth (RAS pressure), indirect dispatch (BTB pressure), and
 * integer/FP mix.
 *
 * Generated programs run forever (the sampled-simulation framework always
 * measures "the first N instructions", as the paper does); all randomness
 * is drawn at build time from a seeded generator, so a given parameter set
 * always produces the identical program.
 */

#ifndef RSR_WORKLOAD_SYNTHETIC_HH
#define RSR_WORKLOAD_SYNTHETIC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "func/program.hh"

namespace rsr::workload
{

/** Tunable characteristics of a synthetic workload. */
struct WorkloadParams
{
    std::string name = "synthetic";
    std::uint64_t seed = 1;

    // Data-side behaviour.
    /** Streamed/random-access array footprint in bytes (power of two). */
    std::uint64_t streamBytes = 1 << 20;
    /** Stride of streaming accesses in bytes. */
    unsigned strideBytes = 64;
    /** Pointer-chase region footprint in bytes (0 disables; power of 2). */
    std::uint64_t chaseBytes = 0;
    /** Probability a memory op in a body block is a chase step. */
    double chaseFrac = 0.0;
    /** Probability a non-chase memory op uses a random (LCG) index. */
    double randomAccessFrac = 0.3;
    /** Probability a non-chase memory op is a store. */
    double storeFrac = 0.25;
    /** Memory operations per body block. */
    unsigned memOpsPerBlock = 2;

    // Compute-side behaviour.
    /** Plain ALU operations per body block. */
    unsigned aluOpsPerBlock = 5;
    /** Probability an ALU op is floating point. */
    double fpFrac = 0.0;
    /** Probability an integer ALU op is a multiply. */
    double mulFrac = 0.08;
    /** Probability an integer ALU op is a divide. */
    double divFrac = 0.01;

    // Control-side behaviour.
    /** P(taken) of data-dependent branches (0.5 = unpredictable). */
    double branchBias = 0.7;
    /** Data-dependent branches per body block. */
    unsigned ddBranchesPerBlock = 1;
    /** Number of distinct functions (instruction footprint knob). */
    unsigned numFuncs = 16;
    /** Body blocks per function. */
    unsigned blocksPerFunc = 8;
    /** Mean inner-loop trip count per function call. */
    unsigned innerIters = 32;
    /** Depth of the recursive helper called from each function (0 = off). */
    unsigned recursionDepth = 0;
    /** Dispatch to functions via an indirect jump table (vs. a beq chain). */
    bool indirectDispatch = true;
    /** Size of the branch-bias byte array in bytes (power of two). */
    std::uint64_t biasBytes = 1 << 16;
};

/** Build the program image for a parameter set. */
func::Program buildSynthetic(const WorkloadParams &params);

/**
 * The nine SPEC2000-like profiles used throughout the paper's evaluation
 * (gcc, mcf, parser, perl, vortex, vpr, twolf, ammp, art), in the paper's
 * presentation order (FP first: ammp, art, then integer alphabetical).
 */
std::vector<WorkloadParams> standardWorkloadParams();

/** Parameters for one named standard workload. */
WorkloadParams standardWorkloadParams(const std::string &name);

} // namespace rsr::workload

#endif // RSR_WORKLOAD_SYNTHETIC_HH
