#include "manifest.hh"

#include "json.hh"
#include "util/error.hh"

namespace rsr::harness
{

namespace
{

constexpr const char *manifestTag = "rsr-campaign";
constexpr std::uint64_t manifestVersion = 1;

std::string
toStr(const std::map<std::string, std::string> &obj,
      const std::string &key)
{
    const auto it = obj.find(key);
    return it == obj.end() ? "" : it->second;
}

} // namespace

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Running:
        return "running";
      case JobStatus::Complete:
        return "complete";
      case JobStatus::Failed:
        return "failed";
      case JobStatus::TimedOut:
        return "timed-out";
    }
    return "unknown";
}

JobStatus
parseJobStatus(const std::string &name)
{
    for (JobStatus s : {JobStatus::Running, JobStatus::Complete,
                        JobStatus::Failed, JobStatus::TimedOut})
        if (name == jobStatusName(s))
            return s;
    rsr_throw_corrupt("unknown job status '", name, "'");
}

std::string
formatJobRecord(const JobRecord &r)
{
    JsonWriter w;
    w.put("id", r.id)
        .put("workload", r.workload)
        .put("policy", r.policy)
        .put("status", jobStatusName(r.status))
        .put("attempts", r.attempts);
    if (!r.errorKind.empty())
        w.put("error_kind", r.errorKind).put("error", r.error);
    if (!r.resultFile.empty())
        w.put("result", r.resultFile).put("checksum", r.checksum);
    return w.str();
}

JobRecord
parseJobRecord(const std::string &line)
{
    const auto obj = parseJsonObject(line);
    JobRecord r;
    r.id = jsonU64(obj, "id");
    r.workload = toStr(obj, "workload");
    r.policy = toStr(obj, "policy");
    r.status = parseJobStatus(toStr(obj, "status"));
    r.attempts = jsonU64(obj, "attempts");
    r.errorKind = toStr(obj, "error_kind");
    r.error = toStr(obj, "error");
    r.resultFile = toStr(obj, "result");
    r.checksum = toStr(obj, "checksum");
    return r;
}

ManifestWriter::ManifestWriter(const std::string &path,
                               const std::string &fingerprint,
                               std::uint64_t num_jobs, OpenMode mode)
    : journal_(path, mode)
{
    if (mode != OpenMode::Fresh)
        return;
    JsonWriter header;
    header.put("manifest", manifestTag)
        .put("version", manifestVersion)
        .put("fingerprint", fingerprint)
        .put("jobs", num_jobs);
    journal_.append(header.str());
}

ManifestState
loadManifest(const std::string &path)
{
    ManifestState state;
    bool have_header = false;
    for (const std::string &line : readJournalLines(path)) {
        if (!have_header) {
            // The header is durably written before any job record; it
            // must parse.
            const auto obj = parseJsonObject(line);
            if (toStr(obj, "manifest") != manifestTag)
                rsr_throw_corrupt(path, " is not a campaign manifest");
            if (jsonU64(obj, "version") != manifestVersion)
                rsr_throw_corrupt("unsupported manifest version in ",
                                  path);
            state.fingerprint = toStr(obj, "fingerprint");
            state.numJobs = jsonU64(obj, "jobs");
            have_header = true;
            continue;
        }

        try {
            const JobRecord r = parseJobRecord(line);
            state.jobs[r.id] = r;
        } catch (const CorruptInputError &) {
            // A torn line from a crash mid-append: drop it; the job
            // reruns. (At-least-once, never lost work marked done.)
            ++state.droppedLines;
        }
    }
    if (!have_header)
        rsr_throw_corrupt(path, " has no manifest header");
    return state;
}

} // namespace rsr::harness
