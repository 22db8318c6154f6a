#include "regimen.hh"

#include <algorithm>
#include <cstddef>

#include "util/error.hh"
#include "util/logging.hh"

namespace rsr::core
{

std::vector<Cluster>
makeSchedule(const SamplingRegimen &regimen, std::uint64_t total_insts,
             Rng &rng)
{
    const std::uint64_t n = regimen.numClusters;
    const std::uint64_t size = regimen.clusterSize;
    if (n == 0)
        rsr_throw_user("sampling regimen needs at least one cluster "
                       "(--clusters 0)");
    if (size == 0)
        rsr_throw_user("sampling regimen needs non-empty clusters "
                       "(--cluster-size 0)");
    if (size > total_insts / n)
        rsr_throw_user("sampling regimen of ", n, " clusters x ", size,
                       " insts exceeds the population of ", total_insts,
                       " (--insts) — lower --clusters or --cluster-size, "
                       "or raise --insts");

    // Uniform placement of n non-overlapping length-`size` intervals:
    // draw n offsets in the leftover gap space, sort, then lay clusters
    // end to end with those gaps.
    const std::uint64_t gap_space = total_insts - n * size;
    std::vector<std::uint64_t> offsets(n);
    for (auto &o : offsets)
        o = gap_space ? rng.below(gap_space + 1) : 0;
    std::sort(offsets.begin(), offsets.end());

    std::vector<Cluster> out(n);
    for (std::uint64_t i = 0; i < n; ++i)
        out[i] = {offsets[i] + i * size, size};
    return out;
}

void
validateSchedule(const std::vector<Cluster> &schedule,
                 std::uint64_t total_insts)
{
    std::uint64_t pos = 0;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const Cluster &c = schedule[i];
        if (c.size == 0)
            rsr_throw_user("explicit schedule cluster ", i,
                           " is empty (start ", c.start, ")");
        if (c.start < pos)
            rsr_throw_user("explicit schedule cluster ", i, " at ",
                           c.start, " overlaps or precedes the previous "
                           "cluster ending at ", pos);
        if (c.start + c.size > total_insts)
            rsr_throw_user("explicit schedule cluster ", i, " spans [",
                           c.start, ", ", c.start + c.size,
                           ") beyond the population of ", total_insts,
                           " instructions");
        pos = c.start + c.size;
    }
}

std::vector<Cluster>
subsetSchedule(const std::vector<Cluster> &candidates,
               const std::vector<std::size_t> &chosen)
{
    std::vector<Cluster> out;
    out.reserve(chosen.size());
    std::size_t prev = 0;
    bool first = true;
    for (std::size_t idx : chosen) {
        rsr_assert(idx < candidates.size(),
                   "selection index ", idx, " out of range for ",
                   candidates.size(), " candidates");
        rsr_assert(first || idx > prev,
                   "selection indices must be strictly increasing");
        out.push_back(candidates[idx]);
        prev = idx;
        first = false;
    }
    return out;
}

} // namespace rsr::core
