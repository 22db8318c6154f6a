/**
 * @file
 * Trace-file tests: record/replay round trips, compression behaviour,
 * trace-driven vs execution-driven timing equivalence, rewind, and
 * malformed-file handling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "branch/predictor.hh"
#include "cache/hierarchy.hh"
#include "core/machine.hh"
#include "func/funcsim.hh"
#include "trace/trace.hh"
#include "util/error.hh"
#include "util/fileio.hh"
#include "workload/program_builder.hh"
#include "workload/synthetic.hh"

namespace rsr::trace
{
namespace
{

std::string
tempPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "/rsr_trace_" + tag +
           ".trc";
}

const func::Program &
twolfProgram()
{
    static const func::Program prog = workload::buildSynthetic(
        workload::standardWorkloadParams("twolf"));
    return prog;
}

TEST(Trace, RoundTripExact)
{
    const auto path = tempPath("roundtrip");
    const std::uint64_t n = 20'000;
    ASSERT_EQ(recordTrace(twolfProgram(), n, path), n);

    func::FuncSim fs(twolfProgram());
    TraceReader reader(path);
    EXPECT_EQ(reader.records(), n);

    // The in-memory encoder (what live-point stores hold) produces
    // exactly the file's payload: one codec for both.
    TraceEncoder encoder;
    func::DynInst expect, got;
    for (std::uint64_t i = 0; i < n; ++i) {
        ASSERT_TRUE(fs.step(&expect));
        encoder.append(expect);
        ASSERT_TRUE(reader.next(got));
        ASSERT_EQ(got.pc, expect.pc) << i;
        ASSERT_EQ(got.nextPc, expect.nextPc) << i;
        ASSERT_EQ(got.effAddr, expect.effAddr) << i;
        ASSERT_EQ(got.inst, expect.inst) << i;
        ASSERT_EQ(got.taken, expect.taken) << i;
        ASSERT_EQ(got.seq, i);
    }
    ASSERT_FALSE(reader.next(got));
    const auto file = readFileBytes(path);
    const std::size_t header = 28;
    ASSERT_EQ(file.size(), header + encoder.bytes().size());
    EXPECT_TRUE(std::equal(encoder.bytes().begin(), encoder.bytes().end(),
                           file.begin() + header));
    EXPECT_EQ(encoder.records(), n);
    std::remove(path.c_str());
}

TEST(Trace, CompressionBeatsNaiveEncoding)
{
    const auto path = tempPath("compression");
    const std::uint64_t n = 50'000;
    func::FuncSim fs(twolfProgram());
    TraceWriter writer(path);
    func::DynInst d;
    for (std::uint64_t i = 0; i < n; ++i) {
        ASSERT_TRUE(fs.step(&d));
        writer.append(d);
    }
    writer.close();
    // A naive fixed-size record is 28+ bytes; delta encoding should stay
    // well under half that on real instruction streams.
    EXPECT_LT(writer.payloadBytes(), n * 14);
    std::remove(path.c_str());
}

TEST(Trace, TraceDrivenTimingMatchesExecutionDriven)
{
    const auto path = tempPath("timing");
    const std::uint64_t n = 30'000;
    ASSERT_EQ(recordTrace(twolfProgram(), n, path), n);

    const auto mc = core::MachineConfig::scaledDefault();

    // Execution-driven.
    core::Machine m1(mc);
    func::FuncSim fs(twolfProgram());
    struct Src : uarch::InstSource
    {
        func::FuncSim &fs;
        explicit Src(func::FuncSim &fs) : fs(fs) {}
        bool next(func::DynInst &out) override { return fs.step(&out); }
    } src(fs);
    uarch::OoOCore core1(mc.core, m1.hier, m1.bp);
    const auto r1 = core1.run(src, n);

    // Trace-driven.
    core::Machine m2(mc);
    TraceReader reader(path);
    uarch::OoOCore core2(mc.core, m2.hier, m2.bp);
    const auto r2 = core2.run(reader, n);

    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.insts, r2.insts);
    EXPECT_EQ(r1.branchMispredicts, r2.branchMispredicts);
    std::remove(path.c_str());
}

TEST(Trace, RewindReplays)
{
    const auto path = tempPath("rewind");
    ASSERT_EQ(recordTrace(twolfProgram(), 1000, path), 1000u);
    TraceReader reader(path);
    func::DynInst a, b;
    ASSERT_TRUE(reader.next(a));
    while (reader.next(b)) {
    }
    reader.rewind();
    ASSERT_TRUE(reader.next(b));
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.inst, b.inst);
    std::remove(path.c_str());
}

TEST(Trace, EarlyHaltTruncates)
{
    // A program that halts after a few instructions records only those.
    workload::ProgramBuilder b;
    b.addi(1, 0, 1);
    b.addi(2, 0, 2);
    b.halt();
    const auto prog = b.build("tiny");
    const auto path = tempPath("halt");
    EXPECT_EQ(recordTrace(prog, 1000, path), 2u);
    TraceReader reader(path);
    EXPECT_EQ(reader.records(), 2u);
    std::remove(path.c_str());
}

TEST(TraceErrors, MissingFileThrowsUserError)
{
    EXPECT_THROW(TraceReader("/nonexistent/path/nope.trc"), UserError);
}

TEST(TraceErrors, GarbageFileThrowsCorruptInput)
{
    const auto path = tempPath("garbage");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[64] = "this is not a trace file at all, sorry......";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
    try {
        TraceReader r(path);
        FAIL() << "TraceReader did not throw";
    } catch (const CorruptInputError &e) {
        EXPECT_NE(std::string(e.what()).find("not a trace file"),
                  std::string::npos);
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace rsr::trace
