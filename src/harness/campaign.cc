#include "campaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

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
    if (this->config.sampling.kind !=
            core::SamplingPolicyKind::UniformCluster &&
        !this->config.livepointDir.empty())
        rsr_throw_user("campaign --livepoints does not compose with "
                       "--sampling ",
                       core::samplingPolicyName(this->config.sampling.kind),
                       "; capture estimator stores with `rsr_sim mklvpt "
                       "--sampling ...` and replay them directly");
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
    const auto policy = core::makePolicyByName(spec.policy);

    core::SampledConfig sim;
    sim.totalInsts = config.insts;
    sim.regimen = {config.clusters, config.clusterSize};
    sim.scheduleSeed = config.seed;
    sim.machine = config.machine;

    const Deadline deadline(config.jobTimeoutSec);
    if (config.jobTimeoutSec > 0.0)
        sim.deadline = &deadline;

    core::SampledResult r;
    std::string store_hash;
    std::uint64_t store_bytes = 0;
    const bool estimator_job =
        config.sampling.kind != core::SamplingPolicyKind::UniformCluster;
    EstimatorRunResult est;
    if (estimator_job) {
        // Selection + explicit-schedule measurement, serial within the
        // job (campaign parallelism is across jobs): bit-identical to
        // any `rsr_sim run --sampling ...` of the same parameters.
        est = runEstimator(program, spec.policy, sim, config.sampling,
                           /*jobs=*/1);
        r = est.sampled;
    } else if (config.livepointDir.empty()) {
        r = core::runSampled(program, *policy, sim);
    } else {
        // Live-point mode: replay from a per-(workload, policy) store,
        // creating it (or recreating a stale one — never silent reuse)
        // when its configHash does not match this campaign's parameters.
        const std::string store_path = config.livepointDir + "/" +
                                       spec.workload + "-" + spec.policy +
                                       ".lvpt";
        const std::uint64_t want = core::LivePointStore::configHash(
            spec.workload, spec.policy, sim);
        std::unique_ptr<core::LivePointStore> store;
        if (fileExists(store_path)) {
            auto loaded = core::LivePointStore::loadFile(store_path);
            if (loaded.configHash() == want)
                store = std::make_unique<core::LivePointStore>(
                    std::move(loaded));
        }
        if (!store) {
            store = std::make_unique<core::LivePointStore>(
                core::LivePointStore::create(program, *policy, sim,
                                             spec.workload, spec.policy));
            store->saveFile(store_path);
        }
        r = replayStoreParallel(*store, 1);
        store_hash = checksumHex(store->storeHash());
        store_bytes = store->serialize().size();
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
    if (estimator_job)
        w.put("sampling",
              core::samplingPolicyName(config.sampling.kind))
            .put("proxy", core::proxyKindName(config.sampling.proxy))
            .put("candidates", est.candidateCount)
            .put("proxy_insts", est.proxyInsts)
            .put("pilot_measure_insts", est.pilotMeasuredInsts)
            .put("total_measure_insts", est.measuredInsts());
    if (!store_hash.empty())
        w.put("store_hash", store_hash).put("store_bytes", store_bytes);
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

    const ManifestWriter::OpenMode manifest_mode =
        config.sharedManifest ? ManifestWriter::OpenMode::SharedAppend
        : resume              ? ManifestWriter::OpenMode::Resume
                              : ManifestWriter::OpenMode::Fresh;
    ManifestWriter manifest(manifest_path, fp, jobs.size(),
                            manifest_mode);

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
        {
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

            for (unsigned attempt = 0;; ++attempt) {
                ++rec.attempts;
                rec.status = JobStatus::Running;
                manifest.append(rec);
                try {
                    const JobOutcome out = executeJob(spec);
                    rec.status = out.status;
                    rec.errorKind.clear();
                    rec.error.clear();
                    rec.resultFile = out.resultFile;
                    rec.checksum = out.checksum;
                    rec.storeHash = out.storeHash;
                    rec.ipc = out.ipc;
                    rec.seconds = out.seconds;
                    manifest.append(rec);
                    ++completed;
                    break;
                } catch (const SimError &e) {
                    if (e.retryable() && attempt < config.maxRetries &&
                        !stopRequested()) {
                        ++retries;
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(
                                std::uint64_t{config.backoffMs}
                                << attempt));
                        continue;
                    }
                    rec.status = e.kind() == ErrorKind::Timeout
                                     ? JobStatus::TimedOut
                                     : JobStatus::Failed;
                    rec.errorKind = errorKindName(e.kind());
                    rec.error = e.what();
                    manifest.append(rec);
                    ++failed;
                    break;
                } catch (const std::exception &e) {
                    // bad_alloc and anything else unexpected: treat as
                    // an internal failure of this job only.
                    rec.status = JobStatus::Failed;
                    rec.errorKind =
                        errorKindName(ErrorKind::InternalInvariant);
                    rec.error = e.what();
                    manifest.append(rec);
                    ++failed;
                    break;
                }
            }
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
