#include "shard.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "util/error.hh"
#include "util/fileio.hh"

namespace rsr::harness
{

ShardClaimTable::ShardClaimTable(const std::string &path,
                                 std::uint64_t num_jobs)
    : path(path), numJobs(num_jobs)
{
    fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0)
        rsr_throw_io("cannot open claim table ", path, ": ",
                     std::strerror(errno));
    // One byte of lock range per job. The content is irrelevant — only
    // the byte offsets matter — but sizing the file makes the table
    // inspectable and keeps the ranges inside the file.
    if (::ftruncate(fd, static_cast<off_t>(num_jobs ? num_jobs : 1)) != 0)
        rsr_throw_io("cannot size claim table ", path, ": ",
                     std::strerror(errno));
}

ShardClaimTable::~ShardClaimTable()
{
    if (fd >= 0)
        ::close(fd); // releases every claim this process held
}

bool
ShardClaimTable::tryClaim(std::uint64_t job_id)
{
    struct flock lk;
    std::memset(&lk, 0, sizeof(lk));
    lk.l_type = F_WRLCK;
    lk.l_whence = SEEK_SET;
    lk.l_start = static_cast<off_t>(job_id);
    lk.l_len = 1;
    if (::fcntl(fd, F_SETLK, &lk) == 0)
        return true;
    if (errno == EACCES || errno == EAGAIN)
        return false; // a live sibling owns this job
    rsr_throw_io("claim table lock failed on ", path, " job ", job_id,
                 ": ", std::strerror(errno));
}

std::string
ShardClaimTable::claimPath(const std::string &out_dir)
{
    return out_dir + "/claims.tbl";
}

CampaignResult
runShardedCampaign(const CampaignConfig &config, const ShardOptions &opts)
{
    const unsigned shards = opts.shards == 0 ? 1 : opts.shards;
    makeDirs(config.outDir);
    const std::string fp = CampaignRunner::fingerprint(config);
    const std::string manifest_path =
        CampaignRunner::manifestPath(config.outDir);
    const auto jobs = CampaignRunner::expandJobs(config);

    if (opts.resume) {
        // Validate before forking so a wrong-directory mistake fails
        // once, loudly, instead of N times in N children.
        const ManifestState state = loadManifest(manifest_path);
        if (state.fingerprint != fp)
            rsr_throw_user("manifest in ", config.outDir, " belongs to a "
                           "different campaign (fingerprint ",
                           state.fingerprint, ", expected ", fp, ")");
    }
    // Until it forks, the parent is the manifest's only writer: it writes
    // the header (fresh) or truncates a torn tail (resume) exactly once.
    // Workers open the journal Shared and do neither.
    { ManifestWriter parent(manifest_path, fp, jobs.size(),
                            opts.resume ? ManifestWriter::OpenMode::Resume
                                        : ManifestWriter::OpenMode::Fresh); }
    // Create the claim table up front so every worker opens the same
    // inode (locks attach to the inode, not the path).
    { ShardClaimTable table(ShardClaimTable::claimPath(config.outDir),
                            jobs.size()); }

    CampaignConfig worker_config = config;
    worker_config.claimPath = ShardClaimTable::claimPath(config.outDir);
    worker_config.sharedManifest = true;

    std::fflush(stdout);
    std::fflush(stderr);
    std::vector<pid_t> pids;
    pids.reserve(shards);
    for (unsigned s = 0; s < shards; ++s) {
        const pid_t pid = ::fork();
        if (pid < 0) {
            for (pid_t p : pids)
                ::kill(p, SIGTERM);
            for (pid_t p : pids)
                ::waitpid(p, nullptr, 0);
            rsr_throw_io("cannot fork shard worker: ",
                         std::strerror(errno));
        }
        if (pid == 0) {
            // Worker: run the campaign with claims; every job either
            // gets claimed here or is skipped because a sibling owns it.
            int status = 3;
            try {
                CampaignRunner runner(worker_config);
                const CampaignResult r = runner.run(true);
                status = r.failed > 0 ? 2 : 0;
            } catch (const std::exception &e) {
                std::fprintf(stderr, "shard worker: %s\n", e.what());
                status = 3;
            }
            ::_exit(status); // never unwind into the parent's state
        }
        pids.push_back(pid);
    }

    if (opts.onWorkersStarted)
        opts.onWorkersStarted(pids);

    for (pid_t p : pids)
        ::waitpid(p, nullptr, 0);

    // Aggregate from the journal, not from worker exit codes: the
    // numbers reflect what is durably recorded, which is also what a
    // resume pass will see.
    CampaignResult result;
    result.total = jobs.size();
    const ManifestState state = loadManifest(manifest_path);
    for (const JobSpec &spec : jobs) {
        const auto it = state.jobs.find(spec.id);
        if (it == state.jobs.end()) {
            ++result.stopped; // never dispatched, or its worker died
            continue;
        }
        switch (it->second.status) {
          case JobStatus::Complete:
            ++result.completed;
            break;
          case JobStatus::Failed:
          case JobStatus::TimedOut:
            ++result.failed;
            break;
          default:
            // A Running record with no terminal record: the worker died
            // mid-job; the claim died with it, so resume reruns the job.
            ++result.stopped;
            break;
        }
    }
    return result;
}

} // namespace rsr::harness
