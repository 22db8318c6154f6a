#include "campaign.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/config_file.hh"
#include "core/livepoint_store.hh"
#include "core/stats_report.hh"
#include "core/warmup.hh"
#include "harness/estimator_run.hh"
#include "harness/json.hh"
#include "harness/parallel_run.hh"
#include "harness/shard.hh"
#include "util/checksum.hh"
#include "util/deadline.hh"
#include "util/error.hh"
#include "util/fileio.hh"
#include "util/logging.hh"
#include "workload/synthetic.hh"

namespace rsr::harness
{

namespace
{

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const auto &n : names) {
        out += n;
        out += ',';
    }
    return out;
}

/** The attempts @p state records for job @p id (0 when none). */
std::uint64_t
attemptsOf(const ManifestState &state, std::uint64_t id)
{
    const auto it = state.jobs.find(id);
    return it == state.jobs.end() ? 0 : it->second.attempts;
}

} // namespace

CampaignRunner::CampaignRunner(CampaignConfig config)
    : config(std::move(config))
{
    if (this->config.outDir.empty())
        rsr_throw_user("campaign needs an output directory");
    if (this->config.workloads.empty() || this->config.policies.empty())
        rsr_throw_user("campaign needs at least one workload and one "
                       "policy");
    if (this->config.shards == 0)
        rsr_throw_user("campaign needs at least one shard");
}

std::vector<JobSpec>
CampaignRunner::expandJobs(const CampaignConfig &config)
{
    std::vector<JobSpec> jobs;
    std::uint64_t id = 0;
    for (const auto &w : config.workloads)
        for (const auto &p : config.policies)
            jobs.push_back({id++, w, p});
    return jobs;
}

std::string
CampaignRunner::fingerprint(const CampaignConfig &config)
{
    Fnv64 h;
    h.update(joinNames(config.workloads));
    h.update("|");
    h.update(joinNames(config.policies));
    for (std::uint64_t v : {config.insts, config.clusters,
                            config.clusterSize, config.seed})
        h.update(&v, sizeof(v));
    // Every job of a campaign runs on one machine.
    const auto machine = core::machineBytes(config.machine);
    h.update(machine.data(), machine.size());
    // Live-point campaigns write different job artifacts (store hashes
    // and sizes), so they must not resume a classic campaign's manifest
    // or vice versa. Classic fingerprints are unchanged by this marker.
    if (!config.livepointDir.empty())
        h.update("|livepoints");
    // Same reasoning for estimator campaigns: a different selection
    // means different jobs. Uniform leaves classic fingerprints alone.
    if (config.sampling.kind != core::SamplingPolicyKind::UniformCluster) {
        h.update("|");
        h.update(config.sampling.describe());
    }
    return checksumHex(h.value());
}

std::string
CampaignRunner::manifestPath(const std::string &out_dir)
{
    return out_dir + "/manifest.jsonl";
}

CampaignRunner::JobOutcome
CampaignRunner::executeJob(const JobSpec &spec)
{
    const auto program = workload::buildSynthetic(
        workload::standardWorkloadParams(spec.workload));

    core::SampledConfig sim;
    sim.totalInsts = config.insts;
    sim.regimen = {config.clusters, config.clusterSize};
    sim.scheduleSeed = config.seed;
    sim.machine = config.machine;

    const Deadline deadline(config.jobTimeoutSec);
    if (config.jobTimeoutSec > 0.0)
        sim.deadline = &deadline;

    // Serial within the job (campaign parallelism is across jobs), and
    // bit-identical to `rsr_sim run` of the same parameters either way.
    core::SampledResult r;
    EstimatorRunResult est;
    std::unique_ptr<core::LivePointStore> store;
    if (config.livepointDir.empty()) {
        est = runEstimator(program, spec.policy, sim, config.sampling,
                           /*jobs=*/1);
        r = est.sampled;
    } else {
        // Live-point mode: replay from a per-(workload, policy) store,
        // creating it (or recreating a stale one — never silent reuse)
        // when its configHash does not match this campaign's parameters
        // or it does not open (an older index version, damaged bytes).
        // The key leaves out the core, so campaigns that differ only in
        // `core.*` share a store; each replays under its own machine.
        const std::string store_path = config.livepointDir + "/" +
                                       spec.workload + "-" + spec.policy +
                                       ".lvpt";
        const std::uint64_t want = core::LivePointStore::configHash(
            spec.workload, spec.policy, sim, config.sampling);
        if (fileExists(store_path)) {
            try {
                auto loaded = core::LivePointStore::loadFile(store_path);
                if (loaded.configHash() == want)
                    store = std::make_unique<core::LivePointStore>(
                        std::move(loaded));
            } catch (const CorruptInputError &e) {
                rsr_warn("recapturing unreadable live-point store ",
                         store_path, ": ", e.what());
            }
        }
        if (!store) {
            store = std::make_unique<core::LivePointStore>(
                captureEstimatorStore(program, spec.policy, sim,
                                      config.sampling, spec.workload));
            store->saveFile(store_path);
        }
        r = replayStoreParallel(*store, sim.machine, 1);
    }

    // The run-metrics table. phase.peak_snapshot_bytes reads 0 here:
    // an in-process run serializes nothing, and a store replay reports
    // no capture.
    JsonWriter w;
    w.put("id", spec.id)
        .put("workload", spec.workload)
        .put("policy", spec.policy)
        .putMetrics(core::runMetrics(r));
    // A reused store's key matched config.sampling, so a store replay
    // and a direct run describe the same selection.
    const core::EstimatorOptions &sampling = config.sampling;
    if (sampling.kind != core::SamplingPolicyKind::UniformCluster) {
        w.put("sampling", core::samplingPolicyName(sampling.kind))
            .put("proxy", core::proxyKindName(sampling.proxy))
            .put("candidates",
                 core::estimatorCandidateCount(config.clusters, sampling));
        // A store replay pays no proxy or pilot cost: the capture did.
        if (!store)
            w.put("proxy_insts", est.proxyInsts)
                .put("pilot_measure_insts", est.pilotMeasuredInsts)
                .put("total_measure_insts", est.measuredInsts());
    }
    if (store) {
        w.put("store_hash", checksumHex(store->storeHash()))
            .put("store_bytes",
                 static_cast<std::uint64_t>(store->serialize().size()));
    }
    const std::string text = w.str() + "\n";

    JobOutcome out;
    out.resultFile = "job-" + std::to_string(spec.id) + ".json";
    out.checksum = checksumHex(fnv64(text.data(), text.size()));
    atomicWriteFile(config.outDir + "/" + out.resultFile, text);
    return out;
}

CampaignResult
CampaignRunner::run(bool resume)
{
    makeDirs(config.outDir);
    if (!config.livepointDir.empty())
        makeDirs(config.livepointDir);
    const std::string fp = fingerprint(config);
    const std::string manifest_path = manifestPath(config.outDir);
    const auto jobs = expandJobs(config);

    // On resume, trust only manifest entries whose artifact is intact.
    ManifestState before;
    std::vector<bool> done(jobs.size(), false);
    if (resume) {
        before = loadManifest(manifest_path);
        if (before.fingerprint != fp)
            rsr_throw_user("manifest in ", config.outDir, " belongs to a "
                           "different campaign (fingerprint ",
                           before.fingerprint, ", expected ", fp, ")");
        for (const auto &[id, rec] : before.jobs) {
            if (id >= jobs.size() || rec.status != JobStatus::Complete)
                continue;
            const std::string path = config.outDir + "/" + rec.resultFile;
            if (!fileExists(path))
                continue;
            const auto bytes = readFileBytes(path);
            done[id] = checksumHex(fnv64(bytes.data(), bytes.size())) ==
                       rec.checksum;
        }
    }
    // Until the workers start, this process is the manifest's only
    // writer: it writes the header (fresh) or truncates a torn tail
    // (resume) exactly once; workers open the journal Shared and do
    // neither. The claim table is created up front so every worker
    // opens the same inode (locks attach to the inode, not the path).
    { ManifestWriter writer(manifest_path, fp, jobs.size(),
                            resume ? ManifestWriter::OpenMode::Resume
                                   : ManifestWriter::OpenMode::Fresh); }
    { ShardClaimTable table(ShardClaimTable::claimPath(config.outDir),
                            jobs.size()); }

    const auto shards = std::min<std::size_t>(config.shards, jobs.size());
    if (shards <= 1) {
        work(jobs, before, done);
    } else {
        std::fflush(stdout);
        std::fflush(stderr);
        std::vector<pid_t> pids;
        for (std::size_t s = 0; s < shards; ++s) {
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
                int status = 0;
                try {
                    work(jobs, before, done);
                } catch (const std::exception &e) {
                    std::fprintf(stderr, "shard worker: %s\n", e.what());
                    status = 3;
                }
                ::_exit(status); // never unwind into the caller's state
            }
            pids.push_back(pid);
        }
        if (config.onWorkersStarted)
            config.onWorkersStarted(pids);
        // Poll instead of blocking in waitpid, which a signal handler
        // installed with SA_RESTART never interrupts: a stop raised in
        // this process alone (a SIGTERM sent to its pid) is forwarded as
        // SIGTERM, and each worker stops on its own copy of the flag.
        bool forwarded = false;
        while (!pids.empty()) {
            if (!forwarded && config.stopFlag && config.stopFlag->load()) {
                for (pid_t p : pids)
                    ::kill(p, SIGTERM);
                forwarded = true;
            }
            std::erase_if(pids, [](pid_t p) {
                return ::waitpid(p, nullptr, WNOHANG) != 0;
            });
            if (!pids.empty())
                ::usleep(10'000);
        }
    }

    // Tally from the journal, not from what any worker believed.
    const ManifestState after = loadManifest(manifest_path);
    CampaignResult result;
    result.total = jobs.size();
    for (const JobSpec &spec : jobs) {
        const std::uint64_t prior = attemptsOf(before, spec.id);
        const std::uint64_t now = attemptsOf(after, spec.id);
        if (done[spec.id]) {
            ++result.skipped;
            continue;
        }
        if (now <= prior) { // not attempted this run
            ++result.stopped;
            continue;
        }
        result.retries += now - prior - 1;
        // A latest Running record: the worker died mid-job, and its claim
        // with it, so resume reruns the job.
        const JobStatus status = after.jobs.at(spec.id).status;
        ++(status == JobStatus::Complete  ? result.completed
           : status == JobStatus::Running ? result.stopped
                                          : result.failed);
    }
    return result;
}

void
CampaignRunner::work(const std::vector<JobSpec> &jobs,
                     const ManifestState &before,
                     const std::vector<bool> &done)
{
    const std::string manifest_path = manifestPath(config.outDir);
    ManifestWriter manifest(manifest_path, fingerprint(config), jobs.size(),
                            ManifestWriter::OpenMode::Shared);
    // Claims are held until this table closes or the process exits.
    ShardClaimTable claims(ShardClaimTable::claimPath(config.outDir),
                           jobs.size());

    // Arm fault injection for the jobs only; the manifest journal and
    // its re-checks bypass the hooks.
    std::unique_ptr<ScopedFaultInjection> faults;
    if (config.faults.enabled())
        faults = std::make_unique<ScopedFaultInjection>(config.faults);

    const auto stopRequested = [this]() {
        return config.stopFlag && config.stopFlag->load();
    };

    for (const JobSpec &spec : jobs) {
        // Graceful shutdown: a job that has not started yet is simply
        // not dispatched; resume runs it next time.
        if (done[spec.id] || stopRequested())
            continue;
        // A live sibling process owns this job.
        if (!claims.tryClaim(spec.id))
            continue;
        // The claim is won, but its previous owner may have finished
        // the job this run and exited (its lock died with it).
        const ManifestState now = loadManifest(manifest_path);
        JobRecord rec;
        rec.attempts = attemptsOf(now, spec.id);
        if (rec.attempts > attemptsOf(before, spec.id) &&
            now.jobs.at(spec.id).status != JobStatus::Running)
            continue;
        rec.id = spec.id;
        rec.workload = spec.workload;
        rec.policy = spec.policy;

        try {
            retryTransient(
                config.maxRetries, config.backoffMs,
                [&] { return !stopRequested(); },
                [&] {
                    ++rec.attempts;
                    rec.status = JobStatus::Running;
                    manifest.append(rec);
                    const JobOutcome out = executeJob(spec);
                    rec.status = JobStatus::Complete;
                    rec.resultFile = out.resultFile;
                    rec.checksum = out.checksum;
                    manifest.append(rec);
                });
        } catch (const SimError &e) {
            rec.status = e.kind() == ErrorKind::Timeout
                             ? JobStatus::TimedOut
                             : JobStatus::Failed;
            rec.errorKind = errorKindName(e.kind());
            rec.error = e.what();
            manifest.append(rec);
        } catch (const std::exception &e) {
            // bad_alloc and anything else unexpected: treat as an
            // internal failure of this job only.
            rec.status = JobStatus::Failed;
            rec.errorKind = errorKindName(ErrorKind::InternalInvariant);
            rec.error = e.what();
            manifest.append(rec);
        }
    }
}

} // namespace rsr::harness
