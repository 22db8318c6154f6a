/**
 * @file
 * The fault-tolerant campaign runner: executes a workload × warm-up-
 * policy matrix as independent jobs on a thread pool. One failing job —
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
#include <string>
#include <vector>

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

    /** Worker threads (>= 1). */
    unsigned threads = 1;
    /** Extra attempts for retryable (transient) failures. */
    unsigned maxRetries = 2;
    /** Backoff before retry attempt k: backoffMs << k. */
    unsigned backoffMs = 10;
    /** Per-job watchdog deadline in seconds (0 disables it). */
    double jobTimeoutSec = 0.0;

    /** Fault injection armed for the duration of the run. */
    FaultConfig faults;

    /**
     * When non-empty, the path of a ShardClaimTable (see shard.hh): a
     * job is run only after this process wins its advisory claim, and a
     * won claim is double-checked against the manifest so a job finished
     * by a sibling that already exited is never rerun. Set by the
     * sharded-campaign driver on each worker process.
     */
    std::string claimPath;

    /**
     * Open the manifest in Shared mode: no header write and no
     * torn-line repair, because several worker processes append to the
     * same journal (the sharded driver's parent writes the header or
     * repairs the tail before it forks).
     */
    bool sharedManifest = false;

    /**
     * Optional cooperative stop request (not owned; must outlive run()).
     * When it becomes true — a SIGINT/SIGTERM handler typically sets it —
     * no further jobs are dispatched and no further retries are slept
     * for; in-flight jobs finish and their manifest entries are flushed,
     * so `--resume` picks up exactly the jobs that never completed.
     */
    const std::atomic<bool> *stopFlag = nullptr;
};

/** One cell of the matrix. */
struct JobSpec
{
    std::uint64_t id = 0;
    std::string workload;
    std::string policy;
};

/** Aggregate outcome of one run() call. */
struct CampaignResult
{
    std::uint64_t total = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    /** Jobs skipped because a previous run completed them. */
    std::uint64_t skipped = 0;
    /** Transient failures that were retried. */
    std::uint64_t retries = 0;
    /** Jobs not run (or not retried) because a stop was requested. */
    std::uint64_t stopped = 0;

    bool allComplete() const { return completed + skipped == total; }
    bool partial() const { return failed > 0 && !allComplete(); }

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
     * skip them.
     */
    CampaignResult run(bool resume = false);

    /** The expanded workload × policy matrix, ids in row-major order. */
    static std::vector<JobSpec> expandJobs(const CampaignConfig &config);

    /** Stable hash of the job matrix, parameters and machine. */
    static std::string fingerprint(const CampaignConfig &config);

    /** The manifest path for a campaign directory. */
    static std::string manifestPath(const std::string &out_dir);

  private:
    struct JobOutcome
    {
        JobStatus status = JobStatus::Failed;
        std::string errorKind;
        std::string error;
        std::string resultFile;
        std::string checksum;
        std::string storeHash;
        double ipc = 0.0;
        double seconds = 0.0;
    };

    /** Run one sampled simulation and write its result artifact. */
    JobOutcome executeJob(const JobSpec &spec);

    CampaignConfig config;
};

} // namespace rsr::harness

#endif // RSR_HARNESS_CAMPAIGN_HH
