/**
 * @file
 * Cluster-sampling statistics (paper Section 5): per-cluster IPC standard
 * deviation, estimated standard error, the 95% confidence interval test
 * against the true IPC, and relative error.
 */

#ifndef RSR_CORE_STATISTICS_HH
#define RSR_CORE_STATISTICS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rsr::core
{

/**
 * One worker's private slice of the scalar replay statistics. Padded to
 * a cache line so neighbouring shards in a ShardedReplayStats array
 * never false-share: each replay worker bumps only its own shard, and
 * the shards are folded together deterministically after the barrier.
 */
struct alignas(64) ReplayStatShard
{
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t reconUpdates = 0;
    double measureSeconds = 0.0;

    void
    add(const ReplayStatShard &o)
    {
        insts += o.insts;
        cycles += o.cycles;
        branchMispredicts += o.branchMispredicts;
        reconUpdates += o.reconUpdates;
        measureSeconds += o.measureSeconds;
    }
};

/**
 * Shared-nothing accumulator for parallel cluster replay: one
 * ReplayStatShard per pool worker. merged() folds shards in ascending
 * shard index, so the result is independent of which worker replayed
 * which cluster — the integer sums are order-free, and the only double
 * (wall seconds) is nondeterministic timing data that never feeds
 * deterministic output.
 */
class ShardedReplayStats
{
  public:
    explicit ShardedReplayStats(unsigned workers) : shards(workers) {}

    /** The shard for pool worker @p worker_index (0-based). */
    ReplayStatShard &
    shard(std::size_t worker_index)
    {
        return shards[worker_index];
    }

    /** Deterministic fold over shards, in shard-index order. */
    ReplayStatShard
    merged() const
    {
        ReplayStatShard total;
        for (const auto &s : shards)
            total.add(s);
        return total;
    }

  private:
    std::vector<ReplayStatShard> shards;
};

/**
 * A per-cluster result slot padded to a cache line. Parallel replay
 * commits into commitSlot[task.index] — adjacent clusters finishing on
 * different workers land on different lines, so the commit writes never
 * false-share, and reading the slots back in index order keeps the
 * final vectors bit-identical for every execution schedule.
 */
struct alignas(64) ClusterCommitSlot
{
    double ipc = 0.0;
    double seconds = 0.0;
};

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
