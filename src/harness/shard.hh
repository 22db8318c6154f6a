/**
 * @file
 * Process-sharded campaign execution: fork N worker processes over one
 * campaign directory, all feeding from the same crash-safe manifest
 * journal. Ownership of individual jobs is decided by a claim table of
 * advisory fcntl byte-range locks — one byte per job id — which the
 * kernel releases automatically when the owning process exits *or dies*.
 * A SIGKILLed worker therefore never wedges the campaign: its claimed,
 * unfinished jobs simply have no Complete record, and the next resume
 * pass reruns exactly those (the same at-least-once contract the
 * single-process resume path has always had).
 *
 * Claim protocol (per job id):
 *   1. tryClaim(id)   — F_SETLK write-lock byte `id`; failure means a
 *                       live sibling owns the job: skip it.
 *   2. re-check       — reload the manifest; a Complete record means a
 *                       sibling finished the job and exited (its lock
 *                       died with it): skip, do not rerun.
 *   3. run the job    — Running/Complete records append to the shared
 *                       manifest (single O_APPEND write()s, whole-line
 *                       atomic).
 *   4. hold the claim — locks are only released by process exit, so a
 *                       job can never be claimed twice while its owner
 *                       is alive.
 */

#ifndef RSR_HARNESS_SHARD_HH
#define RSR_HARNESS_SHARD_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <sys/types.h>

#include "harness/campaign.hh"

namespace rsr::harness
{

/**
 * The advisory-locked claim table. Opening creates (or reuses) a file
 * of @p num_jobs bytes; each byte is the lock range for one job id.
 * All claims taken through this table are held until the table is
 * closed or the process exits — including abnormal death, which is the
 * property the whole sharding scheme leans on.
 */
class ShardClaimTable
{
  public:
    ShardClaimTable(const std::string &path, std::uint64_t num_jobs);
    ~ShardClaimTable();

    ShardClaimTable(const ShardClaimTable &) = delete;
    ShardClaimTable &operator=(const ShardClaimTable &) = delete;

    /**
     * Try to take exclusive ownership of @p job_id. Returns false when
     * another *process* holds the claim. (fcntl locks do not exclude
     * within one process — single-process campaigns trivially own every
     * job, which is exactly right.)
     */
    bool tryClaim(std::uint64_t job_id);

    /** The conventional claim-table path for a campaign directory. */
    static std::string claimPath(const std::string &out_dir);

  private:
    int fd = -1;
    std::string path;
    std::uint64_t numJobs = 0;
};

/** Options for a sharded campaign run. */
struct ShardOptions
{
    /** Worker process count (>= 1). */
    unsigned shards = 1;
    /** Resume an existing campaign directory instead of starting fresh. */
    bool resume = false;
    /**
     * Test hook: invoked in the parent once every worker is forked, with
     * their pids (e.g. to SIGKILL one mid-run and exercise the resume
     * path). Null for normal operation.
     */
    std::function<void(const std::vector<pid_t> &)> onWorkersStarted;
};

/**
 * Run @p config as @p opts.shards forked worker processes sharing the
 * campaign's manifest journal and claim table. The parent writes the
 * manifest header (fresh runs) or truncates a torn manifest tail
 * (resume), forks the workers, reaps them, and
 * derives the aggregate result from the reloaded manifest — so the
 * numbers reflect what is durably journaled, not what any worker
 * believed. Jobs owned by a worker that died are reported in `stopped`
 * and rerun by the next resume pass. config.threads is the per-shard
 * thread count.
 */
CampaignResult runShardedCampaign(const CampaignConfig &config,
                                  const ShardOptions &opts);

} // namespace rsr::harness

#endif // RSR_HARNESS_SHARD_HH
