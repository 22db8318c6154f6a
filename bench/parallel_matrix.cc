/**
 * @file
 * Parallel scaling matrix (jobs × clusters × shards), and the source of
 * the perf-smoke scaling baseline (BENCH_parallel_matrix.json).
 *
 * Leg 1 — replay scaling: capture one live-point store per cluster
 * count, then measure the pure consumer pass (replayStoreParallel —
 * zero functional simulation, the embarrassingly parallel half of the
 * RSR pipeline) at jobs ∈ {1, 2, 4}. Every parallel run must be
 * bit-identical to the serial run; `efficiency_jobs4` is
 * t(1) / (4 · t(4)) on the larger store, the number the perf-smoke gate
 * enforces (≥ 0.7 on a ≥ 4-core runner).
 *
 * Leg 2 — campaign sharding: the same small campaign run single-process
 * and with 4 forked shard workers over one claim-locked manifest; the
 * per-job result artifacts must agree on every deterministic field.
 *
 * The record carries `parallel_scaling_valid` (cores > 1): on a 1-core
 * runner the timings are honest but meaningless as a scaling claim, the
 * efficiency floor is not self-enforced, and consumers must skip
 * scaling assertions. `--baseline` is refused outright on such runners.
 *
 * Flags: --quick (CI sizing), --out FILE (default
 * BENCH_parallel_matrix.json), --baseline (refused when
 * hardware_concurrency() <= 1).
 */

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "core/livepoint_store.hh"
#include "core/stats_report.hh"
#include "core/warmup.hh"
#include "harness/campaign.hh"
#include "harness/json.hh"
#include "harness/parallel_run.hh"
#include "util/args.hh"
#include "util/error.hh"
#include "util/fileio.hh"
#include "util/table.hh"
#include "util/timer.hh"

namespace
{

using namespace rsr;

/**
 * Deterministic fields of one campaign job artifact: the job's identity
 * and every deterministic row of the run-metrics table. A missing key
 * is an error, so a renamed metric cannot compare equal by absence.
 */
std::string
deterministicFields(const std::string &path)
{
    const auto bytes = readFileBytes(path);
    const auto obj =
        harness::parseJsonObject(std::string(bytes.begin(), bytes.end()));
    std::vector<std::string> keys{"id", "workload", "policy"};
    for (const core::RunMetric &m : core::runMetrics({}))
        if (m.deterministic())
            keys.push_back(m.name);
    std::string out;
    for (const std::string &key : keys) {
        const auto it = obj.find(key);
        if (it == obj.end())
            rsr_throw_corrupt("campaign job ", path, " lacks \"", key,
                              "\"");
        out += key + '=' + it->second + '\n';
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    const bool quick = args.has("quick");
    const bool baseline = args.has("baseline");
    const std::string out =
        args.get("out", "BENCH_parallel_matrix.json");
    const unsigned cores = std::thread::hardware_concurrency();
    const bool scaling_valid = cores > 1;

    if (baseline && cores <= 1) {
        std::fprintf(stderr,
                     "parallel_matrix: refusing to write a baseline on a "
                     "%u-core machine; scaling efficiency is "
                     "unmeasurable here — rerun --baseline on a "
                     "multicore runner\n",
                     cores);
        return 1;
    }

    bench::banner("Parallel scaling matrix: jobs x clusters x shards",
                  quick ? "quick mode (CI perf-smoke sizing)"
                        : "replay scaling efficiency + shard identity");

    const std::uint64_t total_insts = quick ? 200'000 : 600'000;
    const std::uint64_t cluster_size = quick ? 1000 : 2000;
    const std::vector<std::uint64_t> cluster_counts{8, 24};
    const std::vector<unsigned> job_counts{1, 2, 4};

    auto setups = bench::prepareWorkloads(false, total_insts);
    setups.erase(setups.begin() + 1, setups.end());
    const auto &setup = setups[0];

    auto j = bench::benchJson("parallel_matrix", 4);
    j.put("workload", setup.params.name)
        .put("total_insts", total_insts)
        .put("cluster_size", cluster_size);

    bool identical = true;
    double eff2 = 0.0, eff4 = 0.0;

    TextTable t({"clusters", "jobs", "seconds", "speedup", "identical"});
    for (std::uint64_t n_clusters : cluster_counts) {
        core::SampledConfig cfg = setup.cfg;
        cfg.regimen = {n_clusters, cluster_size};
        const auto policy = core::makePolicyByName("rsr40");
        const auto store = core::LivePointStore::create(
            setup.program, *policy, cfg, setup.params.name, "rsr40");

        // One untimed warm-up replay so first-touch page faults and
        // lazy allocations do not bill to the jobs=1 cell.
        core::SampledResult ref = harness::replayStoreParallel(store, 1);

        double t1 = 0.0;
        for (unsigned jobs : job_counts) {
            WallTimer timer;
            const core::SampledResult r =
                harness::replayStoreParallel(store, jobs);
            const double secs = timer.seconds();
            if (jobs == 1)
                t1 = secs;
            const bool same =
                r.clusterIpc == ref.clusterIpc &&
                r.estimate.mean == ref.estimate.mean &&
                r.estimate.ciLow == ref.estimate.ciLow &&
                r.estimate.ciHigh == ref.estimate.ciHigh;
            identical = identical && same;
            const double speedup = secs > 0.0 ? t1 / secs : 0.0;
            if (n_clusters == cluster_counts.back()) {
                if (jobs == 2)
                    eff2 = speedup / 2.0;
                if (jobs == 4)
                    eff4 = speedup / 4.0;
            }
            t.addRow({std::to_string(n_clusters), std::to_string(jobs),
                      TextTable::num(secs), TextTable::num(speedup),
                      same ? "yes" : "NO"});
            j.put("seconds_c" + std::to_string(n_clusters) + "_j" +
                      std::to_string(jobs),
                  secs);
        }
    }
    t.print();

    // ---- Leg 2: process-sharded campaign, 1 shard vs 4 shards.
    const std::string tmp_base = out + ".shards.tmp";
    harness::CampaignConfig camp;
    camp.workloads = {"gcc", "mcf"};
    camp.policies = {"none", "rsr40"};
    camp.insts = quick ? 60'000 : 150'000;
    camp.clusters = 4;
    camp.clusterSize = 1000;

    bool shards_identical = true;
    double shard_seconds[2] = {0.0, 0.0};
    std::vector<std::string> fields_by_job;
    const unsigned shard_counts[2] = {1, 4};
    for (int leg = 0; leg < 2; ++leg) {
        camp.outDir = tmp_base + std::to_string(shard_counts[leg]);
        camp.shards = shard_counts[leg];
        WallTimer timer;
        const harness::CampaignResult r =
            harness::CampaignRunner(camp).run();
        shard_seconds[leg] = timer.seconds();
        if (!r.allComplete()) {
            std::printf("ERROR: %u-shard campaign incomplete\n",
                        shard_counts[leg]);
            shards_identical = false;
            continue;
        }
        for (std::uint64_t id = 0; id < r.total; ++id) {
            std::string fields;
            try {
                fields = deterministicFields(
                    camp.outDir + "/job-" + std::to_string(id) + ".json");
            } catch (const CorruptInputError &e) {
                std::printf("ERROR: %s\n", e.what());
                shards_identical = false;
            }
            if (leg == 0)
                fields_by_job.push_back(fields);
            else if (fields_by_job[id] != fields)
                shards_identical = false;
        }
    }
    identical = identical && shards_identical;
    for (const unsigned n : shard_counts)
        std::filesystem::remove_all(tmp_base + std::to_string(n));
    std::printf("\ncampaign: 1 shard %.3fs, 4 shards %.3fs, "
                "deterministic fields %s\n",
                shard_seconds[0], shard_seconds[1],
                shards_identical ? "identical" : "DIVERGED");

    std::printf("replay efficiency: jobs=2 %.2f, jobs=4 %.2f "
                "(%u cores)\n",
                eff2, eff4, cores);
    if (!scaling_valid)
        std::printf("note: only %u hardware core(s) visible; efficiency "
                    "is not a scaling claim here\n",
                    cores);

    j.put("campaign_seconds_shards1", shard_seconds[0])
        .put("campaign_seconds_shards4", shard_seconds[1])
        .put("efficiency_jobs2", eff2)
        .put("efficiency_jobs4", eff4)
        // Efficiency is already dimensionless, so it doubles as its own
        // norm_ metric for the bench_compare gate.
        .put("norm_efficiency_jobs4", eff4)
        .putBool("parallel_scaling_valid", scaling_valid)
        .putBool("identical", identical);
    atomicWriteFile(out, j.str() + "\n");
    std::printf("wrote %s\n", out.c_str());

    if (!identical) {
        std::printf("ERROR: parallel results diverged from serial\n");
        return 1;
    }
    // Self-enforced scaling floor: a ≥ 4-core machine that cannot reach
    // 0.7 efficiency at 4 jobs has a real scalability regression.
    if (cores >= 4 && eff4 < 0.7) {
        std::printf("ERROR: jobs=4 efficiency %.2f below the 0.7 floor "
                    "on a %u-core machine\n",
                    eff4, cores);
        return 1;
    }
    return 0;
}
