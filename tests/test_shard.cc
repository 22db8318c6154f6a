/**
 * @file
 * Tests for process-sharded campaigns: the fcntl claim table's
 * cross-process exclusivity (which requires actual fork()ed processes —
 * POSIX record locks do not exclude within one process), shard-count
 * invariance of every deterministic result field, and the headline
 * fault-tolerance property: SIGKILL a shard worker mid-run and a resume
 * pass finishes the campaign with no lost or duplicated measurements.
 *
 * These tests fork; they must not run under TSan (its runtime dies in
 * forked children) and are kept out of the CI TSan shard on purpose.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/campaign.hh"
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
    cfg.threads = 1;
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
    harness::ShardOptions opts;
    opts.shards = 4;
    const harness::CampaignResult r =
        harness::runShardedCampaign(cfg, opts);
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
    harness::ShardOptions opts1;
    opts1.shards = 1;
    ASSERT_TRUE(harness::runShardedCampaign(one, opts1).allComplete());

    harness::CampaignConfig four = shardCampaign("inv4");
    harness::ShardOptions opts4;
    opts4.shards = 4;
    ASSERT_TRUE(harness::runShardedCampaign(four, opts4).allComplete());

    const Journal a = readJournal(one.outDir);
    const Journal b = readJournal(four.outDir);
    ASSERT_EQ(a.latest.size(), b.latest.size());
    for (const auto &[id, rec] : a.latest) {
        const harness::JobRecord &other = b.latest.at(id);
        EXPECT_EQ(rec.workload, other.workload) << "job " << id;
        EXPECT_EQ(rec.policy, other.policy) << "job " << id;
        // The measured IPC is bit-identical no matter which worker
        // process ran the job; only timing fields may differ.
        EXPECT_EQ(rec.ipc, other.ipc) << "job " << id;
    }
}

TEST(ShardedCampaign, KilledWorkerLosesNothingAfterResume)
{
    harness::CampaignConfig cfg = shardCampaign("kill");

    // One worker, SIGKILLed as soon as it exists: the run must stop with
    // unfinished jobs journaled as such, never as phantom completions.
    harness::ShardOptions first;
    first.shards = 1;
    first.onWorkersStarted = [](const std::vector<pid_t> &pids) {
        ASSERT_EQ(pids.size(), 1u);
        ::kill(pids[0], SIGKILL);
    };
    const harness::CampaignResult r1 =
        harness::runShardedCampaign(cfg, first);
    EXPECT_EQ(r1.total, 6u);
    EXPECT_GT(r1.stopped, 0u);
    EXPECT_FALSE(r1.allComplete());

    // Resume with four shards: the dead worker's claims died with it, so
    // exactly the unfinished jobs are rerun.
    harness::ShardOptions second;
    second.shards = 4;
    second.resume = true;
    const harness::CampaignResult r2 =
        harness::runShardedCampaign(cfg, second);
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
    harness::ShardOptions opts;
    opts.shards = 4;
    opts.resume = true;
    const harness::CampaignResult r =
        harness::runShardedCampaign(cfg, opts);
    EXPECT_TRUE(r.allComplete())
        << "completed " << r.completed << " stopped " << r.stopped;
    const harness::ManifestState state = harness::loadManifest(manifest);
    EXPECT_EQ(state.droppedLines, 0u);
    ASSERT_EQ(state.jobs.size(), r.total);
    for (const auto &[id, rec] : state.jobs)
        EXPECT_EQ(rec.status, harness::JobStatus::Complete) << "job " << id;
}

} // namespace
} // namespace rsr
