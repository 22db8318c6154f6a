/**
 * @file
 * Shared infrastructure for the benchmark programs.
 *
 * Every experiment follows the paper's protocol (Section 5): the nine
 * SPEC2000-like workloads each get a fixed sampling regimen (Table 1);
 * cluster starting positions are drawn once per workload from a uniform
 * distribution and reused across every warm-up method so sampling bias is
 * held constant; results are reported as relative error against the true
 * (full-trace) IPC, wall-clock simulation time, and warm-side work.
 */

#ifndef RSR_BENCH_COMMON_HH
#define RSR_BENCH_COMMON_HH

#include <memory>
#include <string>
#include <vector>

#include "core/sampled_sim.hh"
#include "core/warmup.hh"
#include "harness/json.hh"
#include "workload/synthetic.hh"

namespace rsr::bench
{

/** One prepared workload: program, regimen, and (optionally) true IPC. */
struct WorkloadSetup
{
    workload::WorkloadParams params;
    func::Program program;
    core::SampledConfig cfg;
    double trueIpc = 0.0;
    double trueSeconds = 0.0;
};

/** Default population size (first N instructions of each workload). */
constexpr std::uint64_t defaultTotalInsts = 4'000'000;

/** The per-workload sampling regimen (the Table-1 column). */
core::SamplingRegimen regimenFor(const std::string &name);

/**
 * Build all nine workloads with their regimens and the scaled Section-4
 * machine. When @p need_true_ipc is set, also runs the full-trace
 * reference simulation per workload (the expensive part).
 */
std::vector<WorkloadSetup>
prepareWorkloads(bool need_true_ipc = true,
                 std::uint64_t total_insts = defaultTotalInsts);

/** Results of one warm-up method across all workloads. */
struct PolicyResults
{
    std::string cliName; ///< the core::makePolicyByName() name
    std::string name;    ///< the policy's paper-style label
    std::vector<core::SampledResult> perWorkload;

    double avgRelErr(const std::vector<WorkloadSetup> &setups) const;
    double avgSeconds() const;
    double avgWarmUpdates() const;
    double avgLoggedRecords() const;
    unsigned ciPasses(const std::vector<WorkloadSetup> &setups) const;
};

/**
 * The method matrix: every policy in @p policies (core::makePolicyByName()
 * names) over every workload, one solo harness::runSampledParallel per
 * cell on one job, so each cell's time is the method's own wall time and
 * no two runs contend for a core. Each cell runs twice; results are
 * bit-identical across the two (everything is seeded), and the cell
 * keeps the lower wall time to suppress scheduler/turbo noise. Rows come
 * back in the order of @p policies.
 */
std::vector<PolicyResults>
runMatrix(const std::vector<std::string> &policies,
          const std::vector<WorkloadSetup> &setups);

/** The row of @p matrix run under core::makePolicyByName() name
 *  @p cli_name. */
const PolicyResults &matrixRow(const std::vector<PolicyResults> &matrix,
                               const std::string &cli_name);

/**
 * Print one figure as a view of @p matrix: the rows named in
 * @p policies as (a) the averaged relative-error / time / work table
 * (the paper's bar charts), (b) a per-workload relative-error table and
 * (c) a per-workload simulation-time table. Speedups are average
 * times relative to the row named @p speedup_baseline.
 */
void printFigure(const std::string &title,
                 const std::vector<PolicyResults> &matrix,
                 const std::vector<std::string> &policies,
                 const std::vector<WorkloadSetup> &setups,
                 const std::string &speedup_baseline);

/** Print the experiment banner. */
void banner(const std::string &title, const std::string &paper_ref);

/**
 * Start the JSON record every benchmark emits: the benchmark name, the
 * runner's hardware core count, and the worker-job count the benchmark
 * ran with. CI gates that reason about parallel speedups need both —
 * a 4-job sweep on a 1-core runner legitimately shows no scaling, and
 * the record must say so rather than leave the gate to guess.
 */
harness::JsonWriter benchJson(const std::string &bench, unsigned jobs);

} // namespace rsr::bench

#endif // RSR_BENCH_COMMON_HH
