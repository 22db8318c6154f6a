#include "proxy.hh"

#include <cmath>

#include "simpoint/bbv.hh"
#include "util/logging.hh"

namespace rsr::simpoint
{

std::vector<double>
bbvCentroidDistance(const func::Program &program,
                    const std::vector<core::Cluster> &candidates,
                    const Deadline *deadline)
{
    if (candidates.empty())
        return {};
    const BbvProfile prof = profileBbv(program, candidates, deadline);
    rsr_assert(prof.intervals.size() == candidates.size() &&
                   prof.intervals.back().totalInsts ==
                       candidates.back().size,
               "workload halted inside the BBV proxy pass");

    // Frequency-normalize, form the centroid, score by L2 distance.
    const std::uint32_t dims = prof.numBlocks;
    std::vector<double> centroid(dims, 0.0);
    std::vector<std::vector<double>> dense(candidates.size());
    for (std::size_t k = 0; k < candidates.size(); ++k) {
        dense[k].assign(dims, 0.0);
        const IntervalBbv &iv = prof.intervals[k];
        for (const auto &[block, count] : iv.counts)
            dense[k][block] = static_cast<double>(count) /
                              static_cast<double>(iv.totalInsts);
        for (std::uint32_t j = 0; j < dims; ++j)
            centroid[j] += dense[k][j];
    }
    const double inv_n = 1.0 / static_cast<double>(candidates.size());
    for (std::uint32_t j = 0; j < dims; ++j)
        centroid[j] *= inv_n;

    std::vector<double> scores(candidates.size(), 0.0);
    for (std::size_t k = 0; k < candidates.size(); ++k) {
        double sum_sq = 0.0;
        for (std::uint32_t j = 0; j < dims; ++j) {
            const double diff = dense[k][j] - centroid[j];
            sum_sq += diff * diff;
        }
        scores[k] = std::sqrt(sum_sq);
    }
    return scores;
}

} // namespace rsr::simpoint
