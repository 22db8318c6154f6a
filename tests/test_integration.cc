/**
 * @file
 * Cross-module integration tests: invariants that only hold when the
 * functional simulator, timing model, warm-up machinery, and statistics
 * cooperate correctly over real workloads.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/sampled_sim.hh"
#include "core/warmup.hh"
#include "func/funcsim.hh"
#include "simpoint/simpoint.hh"
#include "workload/synthetic.hh"

namespace rsr
{
namespace
{

core::SampledConfig
smallConfig()
{
    core::SampledConfig cfg;
    cfg.totalInsts = 400'000;
    cfg.regimen = {15, 2000};
    cfg.machine = core::MachineConfig::scaledDefault();
    return cfg;
}

TEST(Integration, TimingNeverExceedsMachineWidth)
{
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("vpr"));
    const auto cfg = smallConfig();
    auto none = core::makePolicyByName("none");
    const auto r = core::runSampled(prog, *none, cfg);
    for (double ipc : r.clusterIpc) {
        EXPECT_GT(ipc, 0.0);
        EXPECT_LE(ipc, cfg.machine.core.retireWidth);
    }
}

TEST(Integration, FunctionalStateUnaffectedByWarmupPolicy)
{
    // Architectural execution must be bit-identical regardless of which
    // warm-up method observes it: run the same prefix under a sampled
    // run and standalone, and compare final functional state via a
    // deterministic continuation.
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("twolf"));
    func::FuncSim a(prog), b(prog);
    a.run(100'000);
    b.run(100'000);
    EXPECT_EQ(a.pc(), b.pc());
    EXPECT_EQ(a.state().regs, b.state().regs);
}

TEST(Integration, WarmupOrderingOnCacheSensitiveWorkload)
{
    // gcc is cache-sensitive: SMARTS and RSR must both cut the no-warmup
    // error substantially.
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("gcc"));
    auto cfg = smallConfig();
    cfg.totalInsts = 800'000;
    cfg.regimen = {25, 2000};
    const double true_ipc =
        core::runFull(prog, cfg.totalInsts, cfg.machine).ipc();

    auto none = core::makePolicyByName("none");
    auto smarts = core::makePolicyByName("smarts");
    auto rsr = core::makePolicyByName("rsr100");
    const double e_none =
        core::runSampled(prog, *none, cfg).estimate.relativeError(true_ipc);
    const double e_smarts =
        core::runSampled(prog, *smarts, cfg)
            .estimate.relativeError(true_ipc);
    const double e_rsr =
        core::runSampled(prog, *rsr, cfg).estimate.relativeError(true_ipc);
    EXPECT_LT(e_smarts, e_none * 0.7);
    EXPECT_LT(e_rsr, e_none * 0.7);
}

TEST(Integration, RsrLogBoundedByskipRegion)
{
    // The skip log must hold at most one skip region's records (storage
    // is discarded at every cluster boundary).
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("twolf"));
    const auto cfg = smallConfig();
    auto rsr = core::makePolicyByName("rsr20");
    const auto r = core::runSampled(prog, *rsr, cfg);
    // Peak bytes correspond to one region, not the whole run: a loose
    // bound of 32 bytes per skipped instruction of the largest region.
    EXPECT_LT(r.warmWork.peakLogBytes, cfg.totalInsts * 32 / 4);
    EXPECT_GT(r.warmWork.peakLogBytes, 0u);
}

TEST(Integration, SimPointAndSamplingAgreeLoosely)
{
    // Two completely different estimation pipelines should land in the
    // same neighbourhood on an easy workload.
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("twolf"));
    const auto mc = core::MachineConfig::scaledDefault();
    const std::uint64_t total = 300'000;

    core::SampledConfig cfg;
    cfg.totalInsts = total;
    cfg.regimen = {20, 2000};
    cfg.machine = mc;
    auto smarts = core::makePolicyByName("smarts");
    const auto sampled = core::runSampled(prog, *smarts, cfg);

    simpoint::SimPointConfig scfg;
    scfg.intervalSize = 2000;
    scfg.maxK = 15;
    const auto sel = simpoint::pickSimPoints(prog, total, scfg);
    const auto sp = simpoint::runSimPoints(prog, sel, true, mc);

    EXPECT_LT(std::fabs(sp.ipc - sampled.estimate.mean) /
                  sampled.estimate.mean,
              0.5);
}

TEST(Integration, AllWorkloadsSurviveAllPolicies)
{
    // Smoke: every Table-2 policy completes on every workload (tiny run).
    core::SampledConfig cfg;
    cfg.totalInsts = 60'000;
    cfg.regimen = {5, 1000};
    cfg.machine = core::MachineConfig::scaledDefault();
    for (const auto &wp : workload::standardWorkloadParams()) {
        const auto prog = workload::buildSynthetic(wp);
        for (const std::string &name : core::table2PolicyNames()) {
            const auto policy = core::makePolicyByName(name);
            const auto r = core::runSampled(prog, *policy, cfg);
            EXPECT_EQ(r.clusterIpc.size(), 5u)
                << wp.name << " / " << policy->name();
        }
    }
}

TEST(Integration, ReverseCacheTracksSmartsOnEveryWorkload)
{
    // The paper's core cache-side claim: R$ (100%) lands within a small
    // margin of S$ (SMARTS cache-only warming) on every workload.
    core::SampledConfig cfg;
    cfg.totalInsts = 500'000;
    cfg.regimen = {15, 2000};
    cfg.machine = core::MachineConfig::scaledDefault();
    for (const auto &wp : workload::standardWorkloadParams()) {
        const auto prog = workload::buildSynthetic(wp);
        auto scache = core::makePolicyByName("scache");
        auto rcache = core::makePolicyByName("rcache100");
        const auto rs = core::runSampled(prog, *scache, cfg);
        const auto rr = core::runSampled(prog, *rcache, cfg);
        const double gap =
            std::fabs(rr.estimate.mean - rs.estimate.mean) /
            rs.estimate.mean;
        EXPECT_LT(gap, 0.08) << wp.name << ": R$ " << rr.estimate.mean
                             << " vs S$ " << rs.estimate.mean;
    }
}

} // namespace
} // namespace rsr
