/**
 * @file
 * Human-readable statistics dump — a gem5-`stats.txt`-style flat listing
 * of every component counter after a run (core, caches, buses, branch
 * unit), used by the CLI's `--stats` flag — and runMetrics(), the one
 * table of a sampled run's metrics that every surface renders.
 */

#ifndef RSR_CORE_STATS_REPORT_HH
#define RSR_CORE_STATS_REPORT_HH

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "core/machine.hh"
#include "core/sampled_sim.hh"
#include "uarch/core.hh"

namespace rsr::core
{

/** Format all machine + run statistics as `name value [note]` lines. */
std::string formatStats(const Machine &machine,
                        const uarch::RunResult &run);

/** What a run metric measures, and so where two runs may differ. */
enum class MetricKind
{
    Estimate,  ///< the IPC estimate and its clusters (deterministic)
    Work,      ///< instructions, cycles, bytes, updates (deterministic)
    WallClock, ///< wall time: the one kind that differs run to run
};

/**
 * One row of the run-metrics table: the one name of a SampledResult
 * quantity, its value and its kind. Every surface that reports a run
 * (CLI text, campaign job JSON, serve SimResponse) prints these rows
 * under these names. Exactly the wall-clock rows' names end in
 * `seconds`, so dropping the `*seconds` keys leaves the deterministic
 * rows.
 */
struct RunMetric
{
    const char *name;
    std::variant<std::uint64_t, double> value;
    MetricKind kind;
    const char *note = "";

    bool deterministic() const { return kind != MetricKind::WallClock; }
};

/** The run-metrics table of @p r, in the order every surface uses. */
std::vector<RunMetric> runMetrics(const SampledResult &r);

/** @p metrics as `name value [note]` lines, in the formatStats style. */
std::string formatRunMetrics(const std::vector<RunMetric> &metrics);

} // namespace rsr::core

#endif // RSR_CORE_STATS_REPORT_HH
