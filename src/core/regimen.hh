/**
 * @file
 * Sampling regimen and cluster schedule (paper Sections 1 and 5). A
 * regimen fixes the number of clusters and the cluster size for a
 * workload; cluster starting positions are then drawn at random from a
 * uniform distribution, and the same schedule is reused across every
 * warm-up method so sampling bias is held constant.
 */

#ifndef RSR_CORE_REGIMEN_HH
#define RSR_CORE_REGIMEN_HH

#include <cstdint>
#include <vector>

#include "util/random.hh"

namespace rsr::core
{

/** Number and size of sampling units (clusters). */
struct SamplingRegimen
{
    std::uint64_t numClusters = 50;
    std::uint64_t clusterSize = 2000;

    std::uint64_t sampledInsts() const { return numClusters * clusterSize; }
};

/** One measurement cluster: instructions [start, start + size). */
struct Cluster
{
    std::uint64_t start = 0;
    std::uint64_t size = 0;
};

/**
 * Draw a schedule of non-overlapping clusters whose starts are uniformly
 * distributed over the first @p total_insts instructions. Returned sorted
 * by start. Throws UserError naming the flag when the regimen has no
 * clusters, empty clusters, or more instructions than the population.
 */
std::vector<Cluster> makeSchedule(const SamplingRegimen &regimen,
                                  std::uint64_t total_insts, Rng &rng);

/**
 * Check that @p schedule is a valid explicit measurement schedule over a
 * @p total_insts population: non-empty clusters, sorted by start,
 * non-overlapping, last one ending within the population. Throws
 * UserError naming the offending cluster otherwise. Estimator policies
 * route their selection plans through this before handing a subset
 * schedule to the phase driver.
 */
void validateSchedule(const std::vector<Cluster> &schedule,
                      std::uint64_t total_insts);

/**
 * The subset of @p candidates selected by ascending indices @p chosen
 * (e.g. a SelectionPlan's chosen list). Indices must be strictly
 * increasing and in range.
 */
std::vector<Cluster> subsetSchedule(const std::vector<Cluster> &candidates,
                                    const std::vector<std::size_t> &chosen);

} // namespace rsr::core

#endif // RSR_CORE_REGIMEN_HH
