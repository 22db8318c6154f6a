/**
 * @file
 * SimPoint substrate tests: BBV profiling, random projection, k-means
 * with BIC selection, representative-point choice, and the end-to-end
 * SimPoint estimate.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "core/sampled_sim.hh"
#include "simpoint/simpoint.hh"
#include "util/error.hh"
#include "util/random.hh"
#include "workload/program_builder.hh"
#include "workload/synthetic.hh"

namespace rsr::simpoint
{
namespace
{

using workload::Label;
using workload::ProgramBuilder;

/** Two-phase program: phase A loop then phase B loop, very different. */
func::Program
twoPhaseProgram()
{
    ProgramBuilder b;
    b.addi(1, 0, 0);
    b.loadImm64(5, 2000);
    Label phase_a = b.here();
    b.addi(2, 2, 1);
    b.addi(2, 2, 1);
    b.addi(2, 2, 1);
    b.addi(1, 1, 1);
    b.branch(isa::Opcode::Blt, 1, 5, phase_a);
    b.addi(1, 0, 0);
    Label phase_b = b.here();
    b.rtype(isa::Opcode::Mul, 3, 3, 2);
    b.rtype(isa::Opcode::Mul, 3, 3, 2);
    b.rtype(isa::Opcode::Xor, 3, 3, 2);
    b.addi(1, 1, 1);
    b.branch(isa::Opcode::Blt, 1, 5, phase_b);
    b.jump(phase_a); // alternate forever... but r1 keeps rising
    return b.build("twophase");
}

TEST(Bbv, IntervalCountMatchesRun)
{
    const auto prog =
        workload::buildSynthetic(workload::standardWorkloadParams("twolf"));
    const auto prof = profileBbv(prog, 50'000, 1000);
    EXPECT_EQ(prof.intervalSize, 1000u);
    EXPECT_EQ(prof.intervals.size(), 50u);
    for (const auto &iv : prof.intervals)
        EXPECT_EQ(iv.totalInsts, 1000u);
}

TEST(Bbv, CountsSumToIntervalSize)
{
    const auto prog =
        workload::buildSynthetic(workload::standardWorkloadParams("gcc"));
    const auto prof = profileBbv(prog, 20'000, 2000);
    for (const auto &iv : prof.intervals) {
        std::uint64_t sum = 0;
        for (const auto &[block, count] : iv.counts)
            sum += count;
        EXPECT_EQ(sum, iv.totalInsts);
    }
}

TEST(Bbv, DiscoversMultipleBlocks)
{
    const auto prog =
        workload::buildSynthetic(workload::standardWorkloadParams("gcc"));
    const auto prof = profileBbv(prog, 50'000, 1000);
    EXPECT_GT(prof.numBlocks, 50u);
}

/** Instructions per block leader PC in interval @p iv of @p prof. */
std::map<std::uint64_t, std::uint32_t>
countsByLeader(const BbvProfile &prof, std::size_t iv)
{
    std::map<std::uint64_t, std::uint32_t> out;
    for (const auto &[block, count] : prof.intervals[iv].counts)
        out[prof.blockLeaders[block]] = count;
    return out;
}

TEST(Bbv, WindowMatchesIntervalOfFullProfile)
{
    // A lone window {3n, n} skips three intervals yet must credit every
    // block, including the one it starts inside, to the same leader the
    // contiguous interval profile does.
    const auto prog =
        workload::buildSynthetic(workload::standardWorkloadParams("gcc"));
    for (const std::uint64_t n : {1000u, 2000u, 2999u}) {
        const auto prof = profileBbv(prog, 8 * n, n);
        const auto win = profileBbv(prog, {core::Cluster{3 * n, n}});
        ASSERT_EQ(win.intervals.size(), 1u);
        EXPECT_EQ(win.intervals[0].totalInsts, n);
        EXPECT_EQ(countsByLeader(win, 0), countsByLeader(prof, 3)) << n;
    }
}

TEST(Bbv, WindowPassPollsTheDeadline)
{
    const auto prog =
        workload::buildSynthetic(workload::standardWorkloadParams("gcc"));
    const Deadline expired(1e-9);
    EXPECT_THROW(profileBbv(prog, {core::Cluster{0, 1000}}, &expired),
                 TimeoutError);
}

TEST(Bbv, ProjectionShapeAndDeterminism)
{
    const auto prog =
        workload::buildSynthetic(workload::standardWorkloadParams("twolf"));
    const auto prof = profileBbv(prog, 20'000, 1000);
    const auto v1 = projectBbv(prof, 15, 99);
    const auto v2 = projectBbv(prof, 15, 99);
    const auto v3 = projectBbv(prof, 15, 100);
    ASSERT_EQ(v1.size(), prof.intervals.size());
    ASSERT_EQ(v1[0].size(), 15u);
    EXPECT_EQ(v1, v2);
    EXPECT_NE(v1, v3);
}

TEST(Bbv, SimilarIntervalsProjectClose)
{
    // Phase A intervals should be mutually closer than A-to-B distances.
    const auto prog = twoPhaseProgram();
    const auto prof = profileBbv(prog, 20'000, 1000);
    const auto v = projectBbv(prof, 15, 7);
    auto d2 = [&](std::size_t a, std::size_t b) {
        double s = 0;
        for (std::size_t i = 0; i < v[a].size(); ++i)
            s += (v[a][i] - v[b][i]) * (v[a][i] - v[b][i]);
        return s;
    };
    // Intervals 0..8 are phase A (10k insts), 10..18 phase B.
    EXPECT_LT(d2(1, 2), d2(1, 12));
    EXPECT_LT(d2(12, 13), d2(2, 13));
}

TEST(Kmeans, SeparatesObviousClusters)
{
    std::vector<std::vector<double>> data;
    for (int i = 0; i < 30; ++i)
        data.push_back({0.0 + i * 0.001, 0.0});
    for (int i = 0; i < 30; ++i)
        data.push_back({10.0 + i * 0.001, 0.0});
    const auto c = kmeans(data, 2, 42);
    EXPECT_EQ(c.k, 2u);
    // All of the first 30 together, all of the last 30 together.
    for (int i = 1; i < 30; ++i)
        EXPECT_EQ(c.assignment[i], c.assignment[0]);
    for (int i = 31; i < 60; ++i)
        EXPECT_EQ(c.assignment[i], c.assignment[30]);
    EXPECT_NE(c.assignment[0], c.assignment[30]);
}

TEST(Kmeans, SizesSumToPoints)
{
    std::vector<std::vector<double>> data;
    for (int i = 0; i < 50; ++i)
        data.push_back({double(i % 7), double(i % 3)});
    const auto c = kmeans(data, 5, 1);
    std::uint64_t total = 0;
    for (auto s : c.sizes)
        total += s;
    EXPECT_EQ(total, data.size());
}

TEST(Kmeans, KClampedToDataSize)
{
    std::vector<std::vector<double>> data{{0.0}, {1.0}, {2.0}};
    const auto c = kmeans(data, 10, 3);
    EXPECT_LE(c.k, 3u);
}

TEST(Kmeans, BicPrefersTrueK)
{
    // Three well-separated blobs: BIC-based selection should not pick 1.
    std::vector<std::vector<double>> data;
    Rng rng(5);
    for (double center : {0.0, 50.0, 100.0})
        for (int i = 0; i < 40; ++i)
            data.push_back(
                {center + rng.uniform(), center / 2 + rng.uniform()});
    const auto best = pickClustering(data, 10, 17);
    EXPECT_GE(best.k, 3u);
    EXPECT_LE(best.k, 5u);
}

TEST(Kmeans, RepresentativesBelongToTheirClusters)
{
    std::vector<std::vector<double>> data;
    Rng rng(6);
    for (int i = 0; i < 100; ++i)
        data.push_back({rng.uniform() * 10, rng.uniform() * 10});
    const auto c = kmeans(data, 4, 3);
    const auto reps = representativePoints(data, c);
    ASSERT_EQ(reps.size(), c.k);
    for (unsigned j = 0; j < c.k; ++j) {
        if (c.sizes[j] > 0) {
            EXPECT_EQ(c.assignment[reps[j]], static_cast<int>(j));
        }
    }
}

TEST(SimPoint, SelectionWeightsSumToOne)
{
    const auto prog =
        workload::buildSynthetic(workload::standardWorkloadParams("twolf"));
    SimPointConfig cfg;
    cfg.intervalSize = 1000;
    cfg.maxK = 10;
    const auto sel = pickSimPoints(prog, 100'000, cfg);
    ASSERT_GT(sel.k, 0u);
    ASSERT_EQ(sel.intervals.size(), sel.weights.size());
    double total = 0;
    for (double w : sel.weights)
        total += w;
    EXPECT_NEAR(total, 1.0, 1e-9);
    for (std::size_t i = 1; i < sel.intervals.size(); ++i)
        EXPECT_GT(sel.intervals[i], sel.intervals[i - 1]);
}

TEST(SimPoint, RunProducesEstimate)
{
    const auto prog =
        workload::buildSynthetic(workload::standardWorkloadParams("twolf"));
    SimPointConfig cfg;
    cfg.intervalSize = 1000;
    cfg.maxK = 10;
    const auto sel = pickSimPoints(prog, 100'000, cfg);
    const auto mc = core::MachineConfig::scaledDefault();
    const auto r = runSimPoints(prog, sel, false, mc);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_LT(r.ipc, 8.0);
    EXPECT_EQ(r.hotInsts, sel.k * cfg.intervalSize);
}

TEST(SimPoint, WarmupChangesEstimate)
{
    const auto prog =
        workload::buildSynthetic(workload::standardWorkloadParams("twolf"));
    SimPointConfig cfg;
    cfg.intervalSize = 1000;
    cfg.maxK = 10;
    const auto sel = pickSimPoints(prog, 100'000, cfg);
    const auto mc = core::MachineConfig::scaledDefault();
    const auto cold = runSimPoints(prog, sel, false, mc);
    const auto warm = runSimPoints(prog, sel, true, mc);
    EXPECT_NE(cold.ipc, warm.ipc);
}

TEST(SimPoint, EmptyInputsAreUserErrorsNamingTheFlag)
{
    const auto prog =
        workload::buildSynthetic(workload::standardWorkloadParams("gcc"));
    SimPointConfig zero_interval;
    zero_interval.intervalSize = 0;
    SimPointConfig zero_k;
    zero_k.maxK = 0;
    const struct
    {
        std::uint64_t insts;
        SimPointConfig cfg;
        const char *flag;
    } cases[] = {{0, SimPointConfig{}, "--insts"},
                 {100'000, zero_interval, "--interval"},
                 {100'000, zero_k, "--max-k"}};
    for (const auto &c : cases) {
        try {
            pickSimPoints(prog, c.insts, c.cfg);
            ADD_FAILURE() << c.flag << " 0 was accepted";
        } catch (const UserError &e) {
            EXPECT_NE(std::string(e.what()).find(c.flag), std::string::npos)
                << e.what();
        }
    }
}

TEST(SimPoint, GoldenEstimatesMatchParentLoop)
{
    // Figure 9's small-interval setting (4M instructions, 2000-instruction
    // intervals, up to 30 points), recorded from the SimPoint loop that
    // timed each point on the shared machine, before points were measured
    // through core::runSampled. runSampled feeds each point's state
    // effects to the shared machine in commit order rather than the
    // timing model's issue order; on these workloads that leaves both
    // warm-up variants bit-identical. (Cold estimates elsewhere can move
    // in the fifth digit: twolf and perl do at this setting.)
    const struct
    {
        const char *workload;
        unsigned k;
        double cold;
        double warm;
    } golden[] = {
        {"gcc", 26, 0.10780741171076326, 0.21218404714968689},
        {"mcf", 13, 0.044011902070182546, 0.043307992698179421},
    };
    const auto mc = core::MachineConfig::scaledDefault();
    for (const auto &g : golden) {
        const auto prog = workload::buildSynthetic(
            workload::standardWorkloadParams(g.workload));
        SimPointConfig cfg;
        cfg.intervalSize = 2000;
        cfg.maxK = 30;
        const auto sel = pickSimPoints(prog, 4'000'000, cfg);
        ASSERT_EQ(sel.k, g.k) << g.workload;
        const auto cold = runSimPoints(prog, sel, false, mc);
        const auto warm = runSimPoints(prog, sel, true, mc);
        EXPECT_EQ(cold.ipc, g.cold) << g.workload;
        EXPECT_EQ(warm.ipc, g.warm) << g.workload;
        EXPECT_EQ(cold.hotInsts, g.k * cfg.intervalSize);
    }
}

TEST(SimPoint, EstimateWithWarmupReasonable)
{
    // Small-interval SimPoint with SMARTS warming should land within a
    // loose band of the true IPC (the paper's 50K-SMARTS case).
    const auto prog =
        workload::buildSynthetic(workload::standardWorkloadParams("twolf"));
    const auto mc = core::MachineConfig::scaledDefault();
    const std::uint64_t total = 300'000;
    const double true_ipc = core::runFull(prog, total, mc).ipc();
    SimPointConfig cfg;
    cfg.intervalSize = 1000;
    cfg.maxK = 30;
    const auto sel = pickSimPoints(prog, total, cfg);
    const auto r = runSimPoints(prog, sel, true, mc);
    EXPECT_LT(std::fabs(r.ipc - true_ipc) / true_ipc, 0.35);
}

} // namespace
} // namespace rsr::simpoint
