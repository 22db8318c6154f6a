#include "campaign.hh"

#include <algorithm>
#include <atomic>
#include <memory>

#include "core/config_file.hh"
#include "core/livepoint_store.hh"
#include "core/warmup.hh"
#include "harness/estimator_run.hh"
#include "harness/json.hh"
#include "harness/parallel_run.hh"
#include "harness/shard.hh"
#include "harness/thread_pool.hh"
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

} // namespace

CampaignRunner::CampaignRunner(CampaignConfig config)
    : config(std::move(config))
{
    if (this->config.outDir.empty())
        rsr_throw_user("campaign needs an output directory");
    if (this->config.workloads.empty() || this->config.policies.empty())
        rsr_throw_user("campaign needs at least one workload and one "
                       "policy");
    if (this->config.threads == 0)
        this->config.threads = 1;
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
            spec.workload, spec.policy, sim, config.sampling,
            estimatorCandidateCount(config.clusters, config.sampling));
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

    JsonWriter w;
    w.put("id", spec.id)
        .put("workload", spec.workload)
        .put("policy", spec.policy)
        .put("ipc", r.estimate.mean)
        .put("ci_low", r.estimate.ciLow)
        .put("ci_high", r.estimate.ciHigh)
        .put("aggregate_ipc", r.aggregateIpc())
        .put("clusters", static_cast<std::uint64_t>(r.clusterIpc.size()))
        .put("skipped_insts", r.skippedInsts)
        .put("seconds", r.seconds)
        .put("skip_insts", r.phases.skipInsts)
        .put("skip_seconds", r.phases.skipSeconds)
        .put("reconstruct_seconds", r.phases.reconstructSeconds)
        .put("measure_insts", r.phases.measureInsts)
        .put("measure_seconds", r.phases.measureSeconds)
        .put("peak_snapshot_bytes", r.phases.peakSnapshotBytes);
    const core::EstimatorOptions &sampling =
        store ? store->meta().estimator : config.sampling;
    if (sampling.kind != core::SamplingPolicyKind::UniformCluster) {
        w.put("sampling", core::samplingPolicyName(sampling.kind))
            .put("proxy", core::proxyKindName(sampling.proxy))
            .put("candidates", store ? store->meta().candidateCount
                                     : est.candidateCount);
        // A store replay pays no proxy or pilot cost: the capture did.
        if (!store)
            w.put("proxy_insts", est.proxyInsts)
                .put("pilot_measure_insts", est.pilotMeasuredInsts)
                .put("total_measure_insts", est.measuredInsts());
    }
    std::string store_hash;
    if (store) {
        store_hash = checksumHex(store->storeHash());
        w.put("store_hash", store_hash)
            .put("store_bytes",
                 static_cast<std::uint64_t>(store->serialize().size()));
    }
    const std::string text = w.str() + "\n";

    JobOutcome out;
    out.status = JobStatus::Complete;
    out.resultFile = "job-" + std::to_string(spec.id) + ".json";
    out.checksum = checksumHex(fnv64(text.data(), text.size()));
    out.storeHash = store_hash;
    out.ipc = r.estimate.mean;
    out.seconds = r.seconds;
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

    CampaignResult result;
    result.total = jobs.size();

    // On resume, trust only manifest entries whose artifact is intact.
    std::vector<bool> done(jobs.size(), false);
    std::vector<std::uint64_t> prior_attempts(jobs.size(), 0);
    if (resume) {
        const ManifestState state = loadManifest(manifest_path);
        if (state.fingerprint != fp)
            rsr_throw_user("manifest in ", config.outDir, " belongs to a "
                           "different campaign (fingerprint ",
                           state.fingerprint, ", expected ", fp, ")");
        for (const auto &[id, rec] : state.jobs) {
            if (id >= jobs.size())
                continue;
            prior_attempts[id] = rec.attempts;
            if (rec.status != JobStatus::Complete)
                continue;
            const std::string path =
                config.outDir + "/" + rec.resultFile;
            if (!fileExists(path))
                continue;
            const auto bytes = readFileBytes(path);
            if (checksumHex(fnv64(bytes.data(), bytes.size())) ==
                rec.checksum)
                done[id] = true;
        }
    }

    using Mode = ManifestWriter::OpenMode;
    ManifestWriter manifest(manifest_path, fp, jobs.size(),
                            config.sharedManifest ? Mode::Shared
                            : resume              ? Mode::Resume
                                                  : Mode::Fresh);

    // Sharded workers race siblings for job ownership; claims are held
    // until process exit (see shard.hh for the protocol).
    std::unique_ptr<ShardClaimTable> claims;
    if (!config.claimPath.empty())
        claims = std::make_unique<ShardClaimTable>(config.claimPath,
                                                   jobs.size());

    // Arm fault injection for the run only; jobs see injected faults,
    // the manifest journal itself does not (it bypasses the hooks).
    std::unique_ptr<ScopedFaultInjection> faults;
    if (config.faults.enabled())
        faults = std::make_unique<ScopedFaultInjection>(config.faults);

    std::atomic<std::uint64_t> completed{0}, failed{0}, skipped{0},
        retries{0}, stopped{0};

    const auto stopRequested = [this]() {
        return config.stopFlag && config.stopFlag->load();
    };

    auto runJob = [&](const JobSpec &spec) {
        if (done[spec.id]) {
            ++skipped;
            return;
        }
        // Graceful shutdown: a job that has not started yet is simply
        // not dispatched. It gets no manifest entry, so --resume runs
        // it next time.
        if (stopRequested()) {
            ++stopped;
            return;
        }
        if (claims) {
            if (!claims->tryClaim(spec.id)) {
                // A live sibling process owns this job.
                ++skipped;
                return;
            }
            // The claim is won, but the previous owner may have
            // completed the job and exited (its lock died with it).
            // Re-check the journal before running.
            const ManifestState now = loadManifest(manifest_path);
            const auto it = now.jobs.find(spec.id);
            if (it != now.jobs.end() &&
                it->second.status == JobStatus::Complete) {
                ++skipped;
                return;
            }
        }

        JobRecord rec;
        rec.id = spec.id;
        rec.workload = spec.workload;
        rec.policy = spec.policy;
        rec.attempts = prior_attempts[spec.id];

        try {
            retryTransient(
                config.maxRetries, config.backoffMs,
                [&] {
                    if (stopRequested())
                        return false;
                    ++retries;
                    return true;
                },
                [&] {
                    ++rec.attempts;
                    rec.status = JobStatus::Running;
                    manifest.append(rec);
                    const JobOutcome out = executeJob(spec);
                    rec.status = out.status;
                    rec.resultFile = out.resultFile;
                    rec.checksum = out.checksum;
                    rec.storeHash = out.storeHash;
                    rec.ipc = out.ipc;
                    rec.seconds = out.seconds;
                    manifest.append(rec);
                });
            ++completed;
        } catch (const SimError &e) {
            rec.status = e.kind() == ErrorKind::Timeout
                             ? JobStatus::TimedOut
                             : JobStatus::Failed;
            rec.errorKind = errorKindName(e.kind());
            rec.error = e.what();
            manifest.append(rec);
            ++failed;
        } catch (const std::exception &e) {
            // bad_alloc and anything else unexpected: treat as an
            // internal failure of this job only.
            rec.status = JobStatus::Failed;
            rec.errorKind = errorKindName(ErrorKind::InternalInvariant);
            rec.error = e.what();
            manifest.append(rec);
            ++failed;
        }
    };

    {
        ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(config.threads, jobs.size())));
        for (const JobSpec &spec : jobs)
            pool.submit([&runJob, &spec] { runJob(spec); });
        pool.wait();
    }

    result.completed = completed;
    result.failed = failed;
    result.skipped = skipped;
    result.retries = retries;
    result.stopped = stopped;
    return result;
}

} // namespace rsr::harness
