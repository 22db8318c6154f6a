/**
 * @file
 * Golden-value regression tests: a small set of deterministic end-to-end
 * quantities pinned to their current values. Everything in the simulator
 * is seeded, so these values are stable across runs and hosts; they exist
 * to catch *unintended* behavioural drift. If a deliberate model change
 * shifts them, re-baseline the constants in the same commit and say so.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/sampled_sim.hh"
#include "core/warmup.hh"
#include "workload/synthetic.hh"

namespace rsr
{
namespace
{

TEST(Regression, WorkloadProgramSizesPinned)
{
    // Static instruction counts of the generated programs.
    const std::map<std::string, std::size_t> expect{
        {"ammp", 2614},  {"art", 1167},    {"gcc", 29896},
        {"mcf", 1428},   {"parser", 9132}, {"perl", 11839},
        {"twolf", 6058}, {"vortex", 14975},{"vpr", 5283},
    };
    for (const auto &p : workload::standardWorkloadParams()) {
        const auto prog = workload::buildSynthetic(p);
        const auto it = expect.find(p.name);
        ASSERT_NE(it, expect.end());
        EXPECT_EQ(prog.code.size(), it->second) << p.name;
    }
}

TEST(Regression, TrueCyclesPinnedTwolf)
{
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("twolf"));
    const auto full = core::runFull(prog, 100'000,
                                    core::MachineConfig::scaledDefault());
    EXPECT_EQ(full.timing.insts, 100'000u);
    EXPECT_EQ(full.timing.cycles, 256975u);
}

TEST(Regression, SampledEstimatePinnedTwolf)
{
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("twolf"));
    core::SampledConfig cfg;
    cfg.totalInsts = 400'000;
    cfg.regimen = {10, 2000};
    cfg.machine = core::MachineConfig::scaledDefault();
    auto rsr = core::makePolicyByName("rsr20");
    const auto r = core::runSampled(prog, *rsr, cfg);
    EXPECT_EQ(r.hotCycles, 56714u);
    EXPECT_EQ(r.warmWork.loggedRecords, 92153u);
}

} // namespace
} // namespace rsr
