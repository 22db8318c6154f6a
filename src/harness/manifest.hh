/**
 * @file
 * The campaign manifest: an append-only JSON-lines journal of per-job
 * state transitions, written through the durable LineJournal
 * (util/fileio.hh). A crash or SIGKILL can tear at most the final line;
 * the loader drops torn lines (the affected job simply reruns —
 * at-least-once semantics) and a Resume open truncates the torn tail
 * before appending more. The first line is a header carrying a
 * fingerprint of the job matrix so --resume refuses to continue a
 * different campaign.
 */

#ifndef RSR_HARNESS_MANIFEST_HH
#define RSR_HARNESS_MANIFEST_HH

#include <cstdint>
#include <map>
#include <string>

#include "util/fileio.hh"

namespace rsr::harness
{

/** Lifecycle of one campaign job. */
enum class JobStatus
{
    Running,
    Complete,
    Failed,
    TimedOut,
};

const char *jobStatusName(JobStatus status);

/** Inverse of jobStatusName(); throws CorruptInputError. */
JobStatus parseJobStatus(const std::string &name);

/** One manifest line: the latest known state of one job. */
struct JobRecord
{
    std::uint64_t id = 0;
    std::string workload;
    std::string policy;
    JobStatus status = JobStatus::Running;
    std::uint64_t attempts = 0;
    /** Error taxonomy name + message of the last failure ("" if none). */
    std::string errorKind;
    std::string error;
    /** Result artifact (relative to the campaign directory) + checksum.
     *  The artifact holds the job's results; the record only ties it to
     *  this line. */
    std::string resultFile;
    std::string checksum;
};

/** Serialize one record as a single JSON line (no trailing newline). */
std::string formatJobRecord(const JobRecord &r);

/** Parse a line written by formatJobRecord(); throws CorruptInputError. */
JobRecord parseJobRecord(const std::string &line);

/**
 * Writes JobRecord lines (and, opened Fresh, the header line) to a
 * manifest. Thread-safe; in Shared mode several writer processes may
 * append to the same manifest (see LineJournal).
 */
class ManifestWriter
{
  public:
    using OpenMode = LineJournal::OpenMode;

    ManifestWriter(const std::string &path, const std::string &fingerprint,
                   std::uint64_t num_jobs, OpenMode mode);

    /** Durably append one record. */
    void append(const JobRecord &r) { journal_.append(formatJobRecord(r)); }

  private:
    LineJournal journal_;
};

/** Everything recovered from a manifest on resume. */
struct ManifestState
{
    std::string fingerprint;
    std::uint64_t numJobs = 0;
    /** Latest record per job id. */
    std::map<std::uint64_t, JobRecord> jobs;
    /** Unparsable (torn) lines that were dropped. */
    std::uint64_t droppedLines = 0;
};

/**
 * Load a manifest journal. The header must parse (CorruptInputError
 * otherwise); torn job lines are dropped and counted.
 */
ManifestState loadManifest(const std::string &path);

} // namespace rsr::harness

#endif // RSR_HARNESS_MANIFEST_HH
