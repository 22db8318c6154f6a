/**
 * @file
 * Tests for process-sharded campaigns: the fcntl claim table's
 * cross-process exclusivity (which requires actual fork()ed processes —
 * POSIX record locks do not exclude within one process), shard-count
 * invariance of every deterministic result field and of the journal-
 * derived tally, workers that survive injected I/O faults, and the
 * headline fault-tolerance property: SIGKILL the shard workers mid-run
 * and a resume pass finishes the campaign with no lost or duplicated
 * measurements.
 *
 * These tests fork; they must not run under TSan (its runtime dies in
 * forked children) and are kept out of the CI TSan shard on purpose.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/campaign.hh"
#include "harness/json.hh"
#include "harness/manifest.hh"
#include "harness/shard.hh"
#include "util/fileio.hh"

namespace rsr
{
namespace
{

/** A small, fast sharded campaign rooted at a fresh temp directory. */
harness::CampaignConfig
shardCampaign(const char *tag)
{
    harness::CampaignConfig cfg;
    cfg.outDir =
        std::string(::testing::TempDir()) + "/rsr_shard_" + tag;
    cfg.workloads = {"twolf", "gcc"};
    cfg.policies = {"none", "smarts", "rsr40"};
    cfg.insts = 60'000;
    cfg.clusters = 3;
    cfg.clusterSize = 500;
    cfg.machine = core::MachineConfig::scaledDefault();
    cfg.maxRetries = 0;
    cfg.backoffMs = 1;
    std::filesystem::remove_all(cfg.outDir);
    return cfg;
}

/** Latest manifest record per job id, plus Complete-record counts. */
struct Journal
{
    std::map<std::uint64_t, harness::JobRecord> latest;
    std::map<std::uint64_t, unsigned> completeCount;
};

Journal
readJournal(const std::string &out_dir)
{
    Journal j;
    const std::string path =
        harness::CampaignRunner::manifestPath(out_dir);
    const harness::ManifestState state = harness::loadManifest(path);
    j.latest = state.jobs;
    for (const std::string &line : readJournalLines(path)) {
        if (line.find("\"status\"") == std::string::npos)
            continue;
        const harness::JobRecord r = harness::parseJobRecord(line);
        if (r.status == harness::JobStatus::Complete)
            ++j.completeCount[r.id];
    }
    return j;
}

TEST(ShardClaims, SingleProcessOwnsEveryJob)
{
    const std::string path = std::string(::testing::TempDir()) +
                             "/rsr_claims_single.tbl";
    std::remove(path.c_str());
    harness::ShardClaimTable table(path, 8);
    for (std::uint64_t id = 0; id < 8; ++id)
        EXPECT_TRUE(table.tryClaim(id)) << "job " << id;
    // fcntl record locks do not exclude within one process, so a second
    // claim from the same process also succeeds — exactly the behavior
    // the single-process campaign path relies on.
    EXPECT_TRUE(table.tryClaim(0));
}

TEST(ShardClaims, ExcludesAcrossProcessesUntilOwnerDies)
{
    const std::string path = std::string(::testing::TempDir()) +
                             "/rsr_claims_fork.tbl";
    std::remove(path.c_str());
    { harness::ShardClaimTable create(path, 4); }

    int claimed_pipe[2], go_pipe[2];
    ASSERT_EQ(::pipe(claimed_pipe), 0);
    ASSERT_EQ(::pipe(go_pipe), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: claim job 0, tell the parent, hold the claim until the
        // parent says go, then exit (releasing it). No gtest in here —
        // a forked child must not unwind into the parent's test state.
        ::close(claimed_pipe[0]);
        ::close(go_pipe[1]);
        int status = 0;
        char go;
        {
            harness::ShardClaimTable mine(path, 4);
            if (!mine.tryClaim(0))
                status = 1;
            if (::write(claimed_pipe[1], "c", 1) != 1)
                status = 2;
            if (::read(go_pipe[0], &go, 1) != 1)
                status = 3;
        }
        ::_exit(status);
    }
    ::close(claimed_pipe[1]);
    ::close(go_pipe[0]);
    char c;
    ASSERT_EQ(::read(claimed_pipe[0], &c, 1), 1);

    harness::ShardClaimTable table(path, 4);
    EXPECT_FALSE(table.tryClaim(0)); // the child holds it, alive
    EXPECT_TRUE(table.tryClaim(1));  // other jobs stay claimable

    ASSERT_EQ(::write(go_pipe[1], "g", 1), 1);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);

    // The owner is gone; the kernel released its claim with it.
    EXPECT_TRUE(table.tryClaim(0));
    ::close(claimed_pipe[0]);
    ::close(go_pipe[1]);
}

TEST(ShardedCampaign, FourShardsCompleteTheWholeMatrix)
{
    harness::CampaignConfig cfg = shardCampaign("four");
    cfg.shards = 4;
    const harness::CampaignResult r = harness::CampaignRunner(cfg).run();
    EXPECT_EQ(r.total, 6u);
    EXPECT_TRUE(r.allComplete()) << "completed " << r.completed
                                 << " skipped " << r.skipped;

    const Journal j = readJournal(cfg.outDir);
    for (std::uint64_t id = 0; id < r.total; ++id) {
        ASSERT_NE(j.latest.find(id), j.latest.end()) << "job " << id;
        const harness::JobRecord &rec = j.latest.at(id);
        EXPECT_EQ(rec.status, harness::JobStatus::Complete);
        // Exactly one Complete record: claimed once, measured once.
        EXPECT_EQ(j.completeCount.at(id), 1u) << "job " << id;
        EXPECT_TRUE(std::filesystem::is_regular_file(
            cfg.outDir + "/" + rec.resultFile))
            << rec.resultFile;
    }
}

TEST(ShardedCampaign, DeterministicFieldsInvariantAcrossShardCounts)
{
    harness::CampaignConfig one = shardCampaign("inv1");
    ASSERT_TRUE(harness::CampaignRunner(one).run().allComplete());

    harness::CampaignConfig four = shardCampaign("inv4");
    four.shards = 4;
    ASSERT_TRUE(harness::CampaignRunner(four).run().allComplete());

    const Journal a = readJournal(one.outDir);
    const Journal b = readJournal(four.outDir);
    ASSERT_EQ(a.latest.size(), b.latest.size());
    const auto jobIpc = [](const std::string &dir,
                           const harness::JobRecord &rec) {
        const auto bytes = readFileBytes(dir + "/" + rec.resultFile);
        return harness::parseJsonObject(
                   std::string(bytes.begin(), bytes.end()))
            .at("ipc");
    };
    for (const auto &[id, rec] : a.latest) {
        const harness::JobRecord &other = b.latest.at(id);
        EXPECT_EQ(rec.workload, other.workload) << "job " << id;
        EXPECT_EQ(rec.policy, other.policy) << "job " << id;
        // The measured IPC in the job JSON is bit-identical no matter
        // which worker process ran the job; only timing fields may
        // differ.
        EXPECT_EQ(jobIpc(one.outDir, rec), jobIpc(four.outDir, other))
            << "job " << id;
    }
}

TEST(ShardedCampaign, KilledWorkerLosesNothingAfterResume)
{
    harness::CampaignConfig cfg = shardCampaign("kill");

    // Two workers, both SIGKILLed as soon as they exist: the run must
    // stop with unfinished jobs journaled as such, never as phantom
    // completions. (One shard runs in the calling process, so the
    // killed leg needs two.)
    cfg.shards = 2;
    cfg.onWorkersStarted = [](const std::vector<pid_t> &pids) {
        ASSERT_EQ(pids.size(), 2u);
        for (const pid_t pid : pids)
            ::kill(pid, SIGKILL);
    };
    const harness::CampaignResult r1 = harness::CampaignRunner(cfg).run();
    EXPECT_EQ(r1.total, 6u);
    EXPECT_GT(r1.stopped, 0u);
    EXPECT_FALSE(r1.allComplete());

    // Resume with four shards: the dead workers' claims died with them,
    // so exactly the unfinished jobs are rerun.
    cfg.shards = 4;
    cfg.onWorkersStarted = nullptr;
    const harness::CampaignResult r2 =
        harness::CampaignRunner(cfg).run(/*resume=*/true);
    EXPECT_TRUE(r2.allComplete())
        << "completed " << r2.completed << " skipped " << r2.skipped
        << " failed " << r2.failed << " stopped " << r2.stopped;

    // No lost and no duplicated measurements: every job has exactly one
    // Complete record and its artifact on disk.
    const Journal j = readJournal(cfg.outDir);
    for (std::uint64_t id = 0; id < r2.total; ++id) {
        ASSERT_NE(j.latest.find(id), j.latest.end()) << "job " << id;
        EXPECT_EQ(j.latest.at(id).status, harness::JobStatus::Complete);
        EXPECT_EQ(j.completeCount.at(id), 1u) << "job " << id;
        EXPECT_TRUE(std::filesystem::is_regular_file(
            cfg.outDir + "/" + j.latest.at(id).resultFile));
    }
}

/** Stop flag for ParentStopReachesEveryWorker; each forked worker
 *  raises its own copy from the inherited SIGTERM handler. */
std::atomic<bool> g_stop{false};

extern "C" void
raiseStop(int)
{
    g_stop.store(true);
}

TEST(ShardedCampaign, ParentStopReachesEveryWorker)
{
    // A stop raised in the parent alone — a SIGTERM sent to its pid, not
    // to the process group — must reach the workers. The handler is
    // installed with SA_RESTART, as std::signal installs it, so a
    // parent blocked in waitpid would never see the stop.
    struct sigaction sa, prior;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = raiseStop;
    sa.sa_flags = SA_RESTART;
    ASSERT_EQ(::sigaction(SIGTERM, &sa, &prior), 0);

    harness::CampaignConfig cfg = shardCampaign("parentstop");
    g_stop.store(false);
    cfg.stopFlag = &g_stop;
    cfg.shards = 2;
    cfg.onWorkersStarted = [](const std::vector<pid_t> &) {
        g_stop.store(true);
    };
    const harness::CampaignResult r1 = harness::CampaignRunner(cfg).run();
    ::sigaction(SIGTERM, &prior, nullptr);
    EXPECT_GT(r1.stopped, 0u);

    // The workers stopped gracefully: every record they left is terminal.
    for (const auto &[id, rec] : readJournal(cfg.outDir).latest)
        EXPECT_NE(rec.status, harness::JobStatus::Running) << "job " << id;

    // And the manifest resumes to a complete campaign.
    g_stop.store(false);
    cfg.onWorkersStarted = nullptr;
    const harness::CampaignResult r2 =
        harness::CampaignRunner(cfg).run(/*resume=*/true);
    EXPECT_TRUE(r2.allComplete())
        << "completed " << r2.completed << " stopped " << r2.stopped;
    EXPECT_EQ(r2.skipped, r1.completed);
}

TEST(ShardedCampaign, ResumeTruncatesTornManifestTailBeforeForking)
{
    harness::CampaignConfig cfg = shardCampaign("torn");
    const std::string manifest =
        harness::CampaignRunner::manifestPath(cfg.outDir);

    // A header-only manifest: the stop flag is up before any dispatch.
    std::atomic<bool> stop{true};
    cfg.stopFlag = &stop;
    harness::CampaignRunner(cfg).run();
    { // SIGKILL mid-append: a torn, unterminated final line.
        std::ofstream out(manifest, std::ios::app);
        out << "{\"id\":0,\"wor";
    }

    // The workers append Shared and never repair; the parent must
    // truncate the tear before forking, or the first worker record
    // glues onto it and is lost to every later load.
    stop.store(false);
    cfg.shards = 4;
    const harness::CampaignResult r =
        harness::CampaignRunner(cfg).run(/*resume=*/true);
    EXPECT_TRUE(r.allComplete())
        << "completed " << r.completed << " stopped " << r.stopped;
    const harness::ManifestState state = harness::loadManifest(manifest);
    EXPECT_EQ(state.droppedLines, 0u);
    ASSERT_EQ(state.jobs.size(), r.total);
    for (const auto &[id, rec] : state.jobs)
        EXPECT_EQ(rec.status, harness::JobStatus::Complete) << "job " << id;
}

/** The tally fields of a run, for whole-result comparisons. */
std::vector<std::uint64_t>
tally(const harness::CampaignResult &r)
{
    return {r.total,   r.completed, r.failed,
            r.skipped, r.retries,   r.stopped};
}

/** Under injected I/O faults, seeded like
 *  `campaign --shards 2 --fault-seed 7 --fault-io 0.3`. */
harness::CampaignConfig
faultyCampaign(const char *tag, unsigned shards)
{
    harness::CampaignConfig cfg = shardCampaign(tag);
    cfg.shards = shards;
    cfg.maxRetries = 2;
    cfg.faults.seed = 7;
    cfg.faults.ioFailProb = 0.3;
    return cfg;
}

TEST(ShardedCampaign, WorkersSurviveInjectedIoFaults)
{
    // The claim re-check reads the manifest while faults are armed; it
    // must bypass the hooks like the appends do, or an injected read
    // fault kills the worker and strands its remaining jobs.
    const harness::CampaignConfig cfg = faultyCampaign("faulty", 2);
    const harness::CampaignResult r = harness::CampaignRunner(cfg).run();
    EXPECT_EQ(r.stopped, 0u);
    EXPECT_EQ(r.completed + r.failed, r.total);

    const Journal j = readJournal(cfg.outDir);
    ASSERT_EQ(j.latest.size(), r.total);
    for (const auto &[id, rec] : j.latest) {
        if (rec.status == harness::JobStatus::Complete)
            continue;
        EXPECT_EQ(rec.status, harness::JobStatus::Failed) << "job " << id;
        EXPECT_EQ(rec.errorKind, "io") << "job " << id;
    }
}

TEST(ShardedCampaign, RetriesCountedUnderShards)
{
    // Faults fire per (site, draw), and each job's sites (its artifact
    // paths) are its own, so in one directory the same jobs retry
    // whichever worker runs them.
    const harness::CampaignResult r1 =
        harness::CampaignRunner(faultyCampaign("retry", 1)).run();
    const harness::CampaignConfig two = faultyCampaign("retry", 2);
    const harness::CampaignResult r2 = harness::CampaignRunner(two).run();
    EXPECT_GT(r2.retries, 0u);
    EXPECT_EQ(tally(r1), tally(r2));

    // The tally is the journal's: Σ (attempts − 1) over attempted jobs.
    std::uint64_t extra = 0;
    for (const auto &[id, rec] : readJournal(two.outDir).latest)
        extra += rec.attempts - 1;
    EXPECT_EQ(r2.retries, extra);
}

TEST(ShardedCampaign, TalliesEqualAcrossShardCountsOverResumes)
{
    std::vector<std::vector<std::uint64_t>> legs[2];
    const unsigned shard_counts[2] = {1, 4};
    for (int leg = 0; leg < 2; ++leg) {
        harness::CampaignConfig cfg = shardCampaign(
            leg == 0 ? "tally1" : "tally4");
        cfg.shards = shard_counts[leg];
        legs[leg].push_back(tally(harness::CampaignRunner(cfg).run()));
        legs[leg].push_back(
            tally(harness::CampaignRunner(cfg).run(/*resume=*/true)));
        // Torn-tail leg: lose one result and tear the manifest's last
        // line, as a SIGKILL mid-append would. Only that job reruns.
        std::filesystem::remove(cfg.outDir + "/job-1.json");
        {
            std::ofstream out(
                harness::CampaignRunner::manifestPath(cfg.outDir),
                std::ios::app);
            out << "{\"id\":1,\"wor";
        }
        legs[leg].push_back(
            tally(harness::CampaignRunner(cfg).run(/*resume=*/true)));
    }
    // total, completed, failed, skipped, retries, stopped
    EXPECT_EQ(legs[0][0], (std::vector<std::uint64_t>{6, 6, 0, 0, 0, 0}));
    EXPECT_EQ(legs[0][1], (std::vector<std::uint64_t>{6, 0, 0, 6, 0, 0}));
    EXPECT_EQ(legs[0][2], (std::vector<std::uint64_t>{6, 1, 0, 5, 0, 0}));
    EXPECT_EQ(legs[0], legs[1]);
}

TEST(ShardedCampaign, EarlierFailureNotAttemptedCountsAsStopped)
{
    // A first run fails some jobs; a resume whose stop flag is up before
    // any dispatch attempts none of them. Those jobs are stopped — not
    // failed again, not skipped — and the completed ones are skipped.
    harness::CampaignConfig cfg = shardCampaign("failedstop");
    cfg.faults.seed = 0xfa017;
    cfg.faults.ioFailProb = 0.7;
    const harness::CampaignResult r1 = harness::CampaignRunner(cfg).run();
    ASSERT_GT(r1.failed, 0u);

    cfg.faults = FaultConfig{};
    std::atomic<bool> stop{true};
    cfg.stopFlag = &stop;
    const harness::CampaignResult r2 =
        harness::CampaignRunner(cfg).run(/*resume=*/true);
    EXPECT_EQ(r2.failed, 0u);
    EXPECT_EQ(r2.completed, 0u);
    EXPECT_EQ(r2.skipped, r1.completed);
    EXPECT_EQ(r2.stopped, r1.failed);
}

} // namespace
} // namespace rsr
