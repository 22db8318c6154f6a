/**
 * @file
 * The fault-tolerant campaign runner: executes a workload × warm-up-
 * policy matrix as independent jobs on `shards` workers — the calling
 * process for one shard, forked worker processes for more — over one
 * claim table and one manifest journal (see shard.hh). One failing job —
 * a SimError, an injected I/O fault, a watchdog timeout, even an
 * internal-invariant violation — is recorded in the manifest and
 * skipped; the rest of the campaign keeps going. Transient failures
 * (IoError, TimeoutError) are retried with exponential backoff. All
 * artifacts are written atomically, so a crash or SIGKILL at any point
 * leaves a resumable campaign directory: `run(resume=true)` skips every
 * job whose manifest entry is complete and whose result file still
 * matches its recorded checksum.
 */

#ifndef RSR_HARNESS_CAMPAIGN_HH
#define RSR_HARNESS_CAMPAIGN_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <sys/types.h>

#include "core/estimator.hh"
#include "core/sampled_sim.hh"
#include "harness/manifest.hh"
#include "util/fault.hh"

namespace rsr::harness
{

/** The full description of one campaign. */
struct CampaignConfig
{
    /** Directory for the manifest and per-job result files. */
    std::string outDir;
    /** The job matrix: every workload × every policy. */
    std::vector<std::string> workloads;
    std::vector<std::string> policies;

    /** Per-job sampled-simulation parameters. */
    std::uint64_t insts = 300'000;
    std::uint64_t clusters = 10;
    std::uint64_t clusterSize = 2000;
    std::uint64_t seed = 0x5eed;
    core::MachineConfig machine = core::MachineConfig::scaledDefault();

    /**
     * Sampling estimator applied to every job. Uniform (the default) is
     * the classic campaign; ranked-set / two-phase jobs run the
     * selection + explicit-schedule pipeline of estimator_run.hh with
     * the same budget (`clusters` timed clusters). Non-uniform sampling
     * folds into the resume fingerprint.
     */
    core::EstimatorOptions sampling;

    /**
     * When non-empty, jobs source their clusters from per-(workload,
     * policy) live-point stores in this directory: an existing store
     * whose configHash (sampling included) matches is replayed directly
     * under `machine` (zero functional re-simulation; a uniform or
     * ranked-set key leaves out the `core.*` fields, so a core sweep
     * shares one store, while a two-phase key covers them because its
     * pilot is timed on the core); a missing
     * or stale store is captured first — never silently reused. The
     * job's estimate is
     * bit-identical to a direct job's; the store saves the functional
     * front half and, for estimator sampling, the proxy and pilot
     * passes, which its job JSON therefore does not report.
     */
    std::string livepointDir;

    /** Worker count (>= 1): one runs the jobs in the calling process,
     *  more fork that many worker processes (see shard.hh). */
    unsigned shards = 1;
    /** Extra attempts for retryable (transient) failures. */
    unsigned maxRetries = 2;
    /** Backoff before retry attempt k: backoffMs << k. */
    unsigned backoffMs = 10;
    /** Per-job watchdog deadline in seconds (0 disables it). */
    double jobTimeoutSec = 0.0;

    /** Fault injection armed for the duration of the run. */
    FaultConfig faults;

    /**
     * Optional cooperative stop request (not owned; must outlive run()).
     * When it becomes true — a SIGINT/SIGTERM handler typically sets it —
     * no further jobs are dispatched and no further retries are slept
     * for; in-flight jobs finish and their manifest entries are flushed,
     * so `--resume` picks up exactly the jobs that never completed.
     * With more than one shard, a stop raised in the calling process is
     * sent on to the workers as SIGTERM, whose handler should raise the
     * worker's copy of this flag (without one, the worker dies and
     * resume reruns its unfinished job).
     */
    const std::atomic<bool> *stopFlag = nullptr;

    /** Test hook: called with the worker pids once every worker of a
     *  multi-shard run is forked (e.g. to SIGKILL them mid-run). */
    std::function<void(const std::vector<pid_t> &)> onWorkersStarted;
};

/** One cell of the matrix. */
struct JobSpec
{
    std::uint64_t id = 0;
    std::string workload;
    std::string policy;
};

/** Aggregate outcome of one run() call, tallied from the manifest as
 *  it stood before and after the run, alike for every shard count. */
struct CampaignResult
{
    std::uint64_t total = 0;
    /** Jobs this run attempted whose latest record is Complete. */
    std::uint64_t completed = 0;
    /** Jobs this run attempted whose latest record is Failed/TimedOut. */
    std::uint64_t failed = 0;
    /** Jobs skipped because a previous run completed them. */
    std::uint64_t skipped = 0;
    /** Extra attempts this run made: Σ (attempts this run − 1). */
    std::uint64_t retries = 0;
    /** Every other job: not run (stop request) or its worker died. */
    std::uint64_t stopped = 0;

    bool allComplete() const { return completed + skipped == total; }

    /** Process exit status: 0 fully complete, 2 partial success. */
    int
    exitStatus() const
    {
        return allComplete() ? 0 : 2;
    }
};

/** Runs one campaign (optionally resuming a crashed/killed one). */
class CampaignRunner
{
  public:
    explicit CampaignRunner(CampaignConfig config);

    /**
     * Execute every job not already complete. With @p resume, load
     * outDir's manifest (whose fingerprint must match this config),
     * verify completed jobs' artifacts against their checksums, and
     * skip them. Before any job runs, this process writes the manifest
     * header (fresh) or truncates a torn tail (resume) and creates the
     * claim table; the workers then only append.
     */
    CampaignResult run(bool resume = false);

    /** The expanded workload × policy matrix, ids in row-major order. */
    static std::vector<JobSpec> expandJobs(const CampaignConfig &config);

    /** Stable hash of the job matrix, parameters and machine. */
    static std::string fingerprint(const CampaignConfig &config);

    /** The manifest path for a campaign directory. */
    static std::string manifestPath(const std::string &out_dir);

  private:
    /** A completed job (a failed one throws instead). */
    struct JobOutcome
    {
        std::string resultFile;
        std::string checksum;
        std::string storeHash;
        double ipc = 0.0;
        double seconds = 0.0;
    };

    /** Run one sampled simulation and write its result artifact. */
    JobOutcome executeJob(const JobSpec &spec);

    /** One worker: claim, re-check and run each job not @p done
     *  before the run, in id order (see shard.hh). */
    void work(const std::vector<JobSpec> &jobs, const ManifestState &before,
              const std::vector<bool> &done);

    CampaignConfig config;
};

} // namespace rsr::harness

#endif // RSR_HARNESS_CAMPAIGN_HH
