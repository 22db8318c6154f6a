/**
 * @file
 * Cluster-sampling statistics (paper Section 5): per-cluster IPC standard
 * deviation, estimated standard error, the 95% confidence interval test
 * against the true IPC, and relative error.
 */

#ifndef RSR_CORE_STATISTICS_HH
#define RSR_CORE_STATISTICS_HH

#include <cstdint>
#include <vector>

namespace rsr::core
{

/** Summary of a cluster sample. */
struct ClusterEstimate
{
    /** Sample mean IPC (the estimate). */
    double mean = 0.0;
    /** S_IPC: standard deviation across cluster means. */
    double stddev = 0.0;
    /** Estimated standard error S_IPC / sqrt(Ncluster). */
    double stdErr = 0.0;
    /** 95% confidence bounds: mean +/- 1.96 * stdErr. */
    double ciLow = 0.0;
    double ciHigh = 0.0;
    std::uint64_t numClusters = 0;

    /** Does the 95% confidence interval contain @p true_value? */
    bool
    passesCi(double true_value) const
    {
        return true_value >= ciLow && true_value <= ciHigh;
    }

    /** |true - estimate| / true. */
    double relativeError(double true_value) const;
};

/** Compute the cluster-sampling estimate from per-cluster IPC values. */
ClusterEstimate summarizeClusters(const std::vector<double> &cluster_ipcs);

/** Plain mean of a vector (0 for empty input). */
double mean(const std::vector<double> &values);

/**
 * SMARTS-style regimen sizing: the number of equal-size clusters needed
 * so the sample's confidence interval half-width (z standard errors)
 * shrinks to at most @p target_rel_err of the mean, extrapolating the
 * coefficient of variation observed in a pilot sample.
 *
 * n = ceil((z * cv / target)^2), cv = stddev / mean.
 */
std::uint64_t recommendClusters(const ClusterEstimate &pilot,
                                double target_rel_err, double z = 1.96);

} // namespace rsr::core

#endif // RSR_CORE_STATISTICS_HH
