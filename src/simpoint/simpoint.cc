#include "simpoint.hh"

#include <algorithm>
#include <numeric>

#include "core/sampled_sim.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace rsr::simpoint
{

SimPointSelection
pickSimPoints(const func::Program &program, std::uint64_t total_insts,
              const SimPointConfig &config)
{
    if (total_insts == 0)
        rsr_throw_user("SimPoint needs a non-empty population (--insts 0)");
    if (config.intervalSize == 0)
        rsr_throw_user("SimPoint needs a non-empty interval (--interval 0)");
    if (config.maxK == 0)
        rsr_throw_user("SimPoint needs at least one cluster (--max-k 0)");
    // Checked before any window is listed.
    const std::uint64_t intervals = total_insts / config.intervalSize +
                                    (total_insts % config.intervalSize != 0);
    if (intervals > kMaxIntervals)
        rsr_throw_user("SimPoint profiles at most ", kMaxIntervals,
                       " intervals, but --insts ", total_insts,
                       " at --interval ", config.intervalSize, " gives ",
                       intervals, "; raise --interval");
    const BbvProfile prof =
        profileBbv(program, total_insts, config.intervalSize);
    const auto projected =
        projectBbv(prof, config.projectedDims, config.seed);
    const Clustering clustering = pickClustering(
        projected, config.maxK, config.seed, config.bicThreshold);
    const auto reps = representativePoints(projected, clustering);

    // Sort points by execution order, carrying their weights along.
    std::vector<std::size_t> order(reps.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return reps[a] < reps[b]; });

    SimPointSelection sel;
    sel.intervalSize = config.intervalSize;
    sel.k = clustering.k;
    const double total = static_cast<double>(projected.size());
    for (std::size_t c : order) {
        sel.intervals.push_back(reps[c]);
        sel.weights.push_back(
            static_cast<double>(clustering.sizes[c]) / total);
    }
    return sel;
}

SimPointRunResult
runSimPoints(const func::Program &program,
             const SimPointSelection &selection, bool smarts_warmup,
             const core::MachineConfig &machine_config)
{
    rsr_assert(!selection.intervals.empty(), "no simulation points to run");
    core::SampledConfig cfg;
    cfg.machine = machine_config;
    for (const std::uint64_t interval : selection.intervals)
        cfg.explicitSchedule.push_back(
            {interval * selection.intervalSize, selection.intervalSize});
    cfg.totalInsts = cfg.explicitSchedule.back().start +
                     cfg.explicitSchedule.back().size;
    const auto policy =
        core::makePolicyByName(smarts_warmup ? "smarts" : "none");
    const core::SampledResult r = core::runSampled(program, *policy, cfg);

    SimPointRunResult res;
    for (std::size_t p = 0; p < r.clusterIpc.size(); ++p)
        res.ipc += selection.weights[p] * r.clusterIpc[p];
    res.seconds = r.seconds;
    res.hotInsts = r.hotInsts;
    return res;
}

} // namespace rsr::simpoint
