/**
 * @file
 * Additional coverage: SMARTS-style regimen sizing, the stats report,
 * workload pointer-chain structure, and warm-up boundary cases (empty
 * and tiny skip regions, fraction rounding).
 */

#include <gtest/gtest.h>

#include <set>

#include "core/sampled_sim.hh"
#include "core/stats_report.hh"
#include "core/warmup.hh"
#include "func/funcsim.hh"
#include "harness/json.hh"
#include "util/error.hh"
#include "workload/synthetic.hh"

namespace rsr
{
namespace
{

// ---------------------------------------------------------------------------
// Regimen recommendation.
// ---------------------------------------------------------------------------

TEST(RecommendClusters, MatchesFormula)
{
    core::ClusterEstimate pilot;
    pilot.mean = 1.0;
    pilot.stddev = 0.2; // cv = 0.2
    pilot.numClusters = 30;
    // n = (1.96 * 0.2 / 0.02)^2 = 384.16 -> 385
    EXPECT_EQ(core::recommendClusters(pilot, 0.02), 385u);
}

TEST(RecommendClusters, TighterTargetNeedsMoreClusters)
{
    core::ClusterEstimate pilot;
    pilot.mean = 0.5;
    pilot.stddev = 0.1;
    pilot.numClusters = 10;
    EXPECT_GT(core::recommendClusters(pilot, 0.01),
              core::recommendClusters(pilot, 0.05));
}

TEST(RecommendClusters, ZeroVarianceNeedsOne)
{
    core::ClusterEstimate pilot;
    pilot.mean = 1.0;
    pilot.stddev = 0.0;
    pilot.numClusters = 5;
    EXPECT_EQ(core::recommendClusters(pilot, 0.01), 1u);
}

TEST(RecommendClusters, PilotDrivenSizingConverges)
{
    // Size a regimen from a pilot run, then check the full run's CI
    // half-width lands near the target.
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("twolf"));
    core::SampledConfig pilot_cfg;
    pilot_cfg.totalInsts = 600'000;
    pilot_cfg.regimen = {15, 2000};
    pilot_cfg.machine = core::MachineConfig::scaledDefault();
    auto smarts = core::makePolicyByName("smarts");
    const auto pilot = core::runSampled(prog, *smarts, pilot_cfg);

    const double target = 0.05;
    const auto n = core::recommendClusters(pilot.estimate, target);
    core::SampledConfig full_cfg = pilot_cfg;
    full_cfg.regimen.numClusters = n;
    // Keep the sample within the population.
    ASSERT_LE(n * full_cfg.regimen.clusterSize, full_cfg.totalInsts);
    auto smarts2 = core::makePolicyByName("smarts");
    const auto r = core::runSampled(prog, *smarts2, full_cfg);
    const double half_width =
        (r.estimate.ciHigh - r.estimate.ciLow) / 2.0 / r.estimate.mean;
    EXPECT_LT(half_width, target * 1.8); // variance itself is estimated
}

// ---------------------------------------------------------------------------
// Stats report.
// ---------------------------------------------------------------------------

TEST(StatsReport, ContainsAllSections)
{
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("twolf"));
    const auto mc = core::MachineConfig::scaledDefault();
    core::Machine machine(mc);
    func::FuncSim fs(prog);
    struct Src : uarch::InstSource
    {
        func::FuncSim &fs;
        explicit Src(func::FuncSim &fs) : fs(fs) {}
        bool next(func::DynInst &out) override { return fs.step(&out); }
    } src(fs);
    uarch::OoOCore core(mc.core, machine.hier, machine.bp);
    const auto r = core.run(src, 20'000);

    const auto report = core::formatStats(machine, r);
    for (const char *key :
         {"core.ipc", "core.loads", "core.branch_mispredicts",
          "il1.miss_rate", "dl1.hits", "l2.misses", "l1bus.transfers",
          "l2bus.wait_cycles", "bp.lookups", "core.cycles"})
        EXPECT_NE(report.find(key), std::string::npos) << key;
}

TEST(StatsReport, IpcFieldConsistent)
{
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("vpr"));
    const auto mc = core::MachineConfig::scaledDefault();
    core::Machine machine(mc);
    func::FuncSim fs(prog);
    struct Src : uarch::InstSource
    {
        func::FuncSim &fs;
        explicit Src(func::FuncSim &fs) : fs(fs) {}
        bool next(func::DynInst &out) override { return fs.step(&out); }
    } src(fs);
    uarch::OoOCore core(mc.core, machine.hier, machine.bp);
    const auto r = core.run(src, 10'000);
    char expect[64];
    std::snprintf(expect, sizeof(expect), "%.6f", r.ipc());
    EXPECT_NE(core::formatStats(machine, r).find(expect),
              std::string::npos);
}

TEST(RunMetrics, WallClockRowsAreExactlyTheSecondsRows)
{
    // Determinism checks drop the `*seconds` keys of a job JSON: that
    // is sound only if the suffix marks exactly the wall-clock rows.
    std::set<std::string> names;
    core::SampledResult r;
    r.hotInsts = 1234;
    r.phases.skipSeconds = 0.5;
    const auto metrics = core::runMetrics(r);
    const std::string text = core::formatRunMetrics(metrics);
    for (const core::RunMetric &m : metrics) {
        const std::string name = m.name;
        EXPECT_TRUE(names.insert(name).second) << name << " twice";
        EXPECT_EQ(name.ends_with("seconds"), !m.deterministic()) << name;
        EXPECT_NE(text.find(name + " "), std::string::npos) << name;
    }
    EXPECT_NE(text.find("phase.measure.insts"), std::string::npos);
    EXPECT_NE(text.find(" 1234 "), std::string::npos);
    EXPECT_NE(text.find("0.500000"), std::string::npos);
}

TEST(Json, ParserRoundTripsEscapesAndRejectsMalformedInput)
{
    // Every reply a serve client reads and every manifest line goes
    // through parseJsonObject: strings with escapes, scalars, any
    // whitespace between tokens, the last of a repeated key.
    const std::string nasty = "a\"b\\c\nd\te\rf\x01g/h";
    const std::string text = harness::JsonWriter()
                                 .put("s", nasty)
                                 .put("n", std::uint64_t{42})
                                 .put("x", -1.5e-3)
                                 .putBool("b", true)
                                 .str();
    auto obj = harness::parseJsonObject(text);
    EXPECT_EQ(obj.at("s"), nasty);
    EXPECT_EQ(obj.at("n"), "42");
    EXPECT_EQ(obj.at("x"), "-0.0015");
    EXPECT_EQ(obj.at("b"), "true");

    obj = harness::parseJsonObject(
        " {\t\"k\" :\n\"v\\/w\" ,\v\"k\":\f7\r}\n");
    EXPECT_EQ(obj.size(), 1u);
    EXPECT_EQ(obj.at("k"), "7");
    EXPECT_TRUE(harness::parseJsonObject("{}").empty());

    for (const char *bad :
         {"", "{", "{\"k\":\"v}", "{\"k\":\"v\\", "{\"k\":\"\\q\"}",
          "{\"k\":}", "{\"k\" \"v\"}", "{\"k\":1,}", "{\"k\":1} x",
          "{\"k\":\"\\u00zz\"}"})
        EXPECT_THROW(harness::parseJsonObject(bad), CorruptInputError)
            << bad;
}

// ---------------------------------------------------------------------------
// Workload structure.
// ---------------------------------------------------------------------------

TEST(WorkloadStructure, ChaseChainIsASingleCycle)
{
    // Follow mcf's pointer chain through functional memory: it must form
    // one cycle covering every node (Sattolo construction).
    const auto params = workload::standardWorkloadParams("mcf");
    const auto prog = workload::buildSynthetic(params);
    func::FuncSim fs(prog);

    // Find the chase region: the generator links 64-byte nodes with
    // absolute pointers; locate the first self-consistent chain start by
    // scanning the data segments for a pointer into the same segment.
    const std::uint64_t nodes = params.chaseBytes / 64;
    ASSERT_GT(nodes, 0u);
    std::uint64_t base = 0;
    for (const auto &seg : prog.data) {
        if (seg.bytes.size() == params.chaseBytes) {
            base = seg.base;
            break;
        }
    }
    ASSERT_NE(base, 0u);

    std::set<std::uint64_t> visited;
    std::uint64_t p = base;
    for (std::uint64_t i = 0; i < nodes; ++i) {
        ASSERT_TRUE(visited.insert(p).second) << "cycle shorter than nodes";
        ASSERT_GE(p, base);
        ASSERT_LT(p, base + params.chaseBytes);
        p = fs.memory().read(p, 8);
    }
    EXPECT_EQ(p, base) << "chain does not close into a single cycle";
}

TEST(WorkloadStructure, DispatchTableTargetsAreFunctionEntries)
{
    const auto params = workload::standardWorkloadParams("perl");
    ASSERT_TRUE(params.indirectDispatch);
    const auto prog = workload::buildSynthetic(params);
    func::FuncSim fs(prog);
    // Run a while; every executed Jalr-call target must be inside code.
    func::DynInst d;
    unsigned calls = 0;
    for (int i = 0; i < 100'000 && calls < 50; ++i) {
        ASSERT_TRUE(fs.step(&d));
        if (d.inst.op == isa::Opcode::Jalr &&
            d.inst.branchKind() == isa::BranchKind::Call) {
            ++calls;
            EXPECT_GE(d.nextPc, prog.codeBase);
            EXPECT_LT(d.nextPc, prog.codeEnd());
        }
    }
    EXPECT_EQ(calls, 50u);
}

// ---------------------------------------------------------------------------
// Warm-up boundary cases.
// ---------------------------------------------------------------------------

TEST(WarmupBoundary, FixedPeriodZeroLengthSkip)
{
    core::Machine m(core::MachineConfig::scaledDefault());
    auto fp = core::makePolicyByName("fp20");
    fp->attach(m);
    fp->beginSkip(0); // must not divide by zero or underflow
    SUCCEED();
}

TEST(WarmupBoundary, FixedPeriodTinySkipWarmsAtMostAll)
{
    core::Machine m(core::MachineConfig::scaledDefault());
    auto fp = core::makePolicyByName("fp50");
    fp->attach(m);
    fp->beginSkip(3);
    func::DynInst d;
    d.inst.op = isa::Opcode::Ld;
    d.inst.rd = 1;
    d.effAddr = 0x1000;
    // SkipPhase feeds only the observed tail [observeFrom, skip_len).
    for (int i = static_cast<int>(fp->observeFrom(3)); i < 3; ++i) {
        d.pc = 0x10000 + 4 * i;
        fp->onSkipInst(d, i == 0);
    }
    // ceil/round of 0.5 * 3 -> warms the last 1-2 instructions only.
    EXPECT_GT(fp->work().functionalUpdates, 0u);
    EXPECT_LE(fp->work().functionalUpdates, 8u);
}

TEST(WarmupBoundary, RsrEmptySkipReconstructsNothing)
{
    core::Machine m(core::MachineConfig::scaledDefault());
    auto rsr = core::makePolicyByName("rsr20");
    rsr->attach(m);
    rsr->beginSkip(0);
    rsr->beforeCluster();
    EXPECT_EQ(rsr->work().reconstructionUpdates, 0u);
    EXPECT_EQ(rsr->work().loggedRecords, 0u);
}

TEST(WarmupBoundary, RsrLogDiscardedBetweenRegions)
{
    core::Machine m(core::MachineConfig::scaledDefault());
    const auto policy = core::makePolicyByName("rsr100");
    auto *rsr =
        dynamic_cast<core::ReverseReconstructionWarmup *>(policy.get());
    ASSERT_NE(rsr, nullptr);
    rsr->attach(m);
    func::DynInst d;
    d.inst.op = isa::Opcode::Ld;
    d.inst.rd = 1;
    d.effAddr = 0x2000;
    d.pc = 0x10000;

    rsr->beginSkip(5);
    for (int i = 0; i < 5; ++i)
        rsr->onSkipInst(d, i == 0);
    const auto first_records = rsr->log().records();
    rsr->beforeCluster();
    rsr->beginSkip(5);
    EXPECT_EQ(rsr->log().records(), 0u) << "log must be discarded";

    for (int i = 0; i < 5; ++i)
        rsr->onSkipInst(d, i == 0);
    EXPECT_EQ(rsr->log().records(), first_records);
    rsr->beforeCluster();
}

} // namespace
} // namespace rsr
