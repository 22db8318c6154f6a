/**
 * @file
 * Tests for the command-line front end (the argument parser and the
 * command runner) and the policy-by-name factory used by rsr_sim.
 */

#include <gtest/gtest.h>

#include "core/warmup.hh"
#include "util/args.hh"
#include "util/error.hh"

namespace rsr
{
namespace
{

ArgParser
parse(std::initializer_list<const char *> tokens)
{
    std::vector<const char *> argv{"prog"};
    argv.insert(argv.end(), tokens.begin(), tokens.end());
    return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, CommandAndFlags)
{
    const auto a =
        parse({"sample", "--workload", "gcc", "--insts", "1000", "--csv"});
    EXPECT_EQ(a.command(), "sample");
    EXPECT_EQ(a.get("workload"), "gcc");
    EXPECT_EQ(a.getU64("insts", 0), 1000u);
    EXPECT_TRUE(a.has("csv"));
    EXPECT_FALSE(a.has("seed"));
}

TEST(ArgParser, NoCommand)
{
    const auto a = parse({"--flag", "v"});
    EXPECT_EQ(a.command(), "");
    EXPECT_EQ(a.get("flag"), "v");
}

TEST(ArgParser, Defaults)
{
    const auto a = parse({"cmd"});
    EXPECT_EQ(a.get("missing", "fallback"), "fallback");
    EXPECT_EQ(a.getU64("missing", 42), 42u);
    EXPECT_DOUBLE_EQ(a.getDouble("missing", 1.5), 1.5);
}

TEST(ArgParser, SwitchBeforeValuedFlag)
{
    const auto a = parse({"cmd", "--warm", "--interval", "5000"});
    EXPECT_TRUE(a.has("warm"));
    EXPECT_EQ(a.get("warm"), "");
    EXPECT_EQ(a.getU64("interval", 0), 5000u);
}

TEST(ArgParser, HexIntegers)
{
    const auto a = parse({"cmd", "--seed", "0xff"});
    EXPECT_EQ(a.getU64("seed", 0), 255u);
}

TEST(ArgParser, UnknownFlagDetection)
{
    const auto a = parse({"cmd", "--good", "1", "--bad", "2"});
    const auto unknown = a.unknownFlags({"good"});
    ASSERT_EQ(unknown.size(), 1u);
    EXPECT_EQ(unknown[0], "bad");
}

TEST(ArgParser, NonIntegerThrowsUserError)
{
    const auto a = parse({"cmd", "--insts", "lots"});
    EXPECT_THROW(a.getU64("insts", 0), UserError);
}

TEST(ArgParser, PositiveU64AcceptsDigitsAndFallsBack)
{
    const auto a = parse({"run", "--jobs", "4"});
    EXPECT_EQ(a.getPositiveU64("jobs", 1), 4u);
    EXPECT_EQ(a.getPositiveU64("missing", 7), 7u);
}

TEST(ArgParser, PositiveU64RejectsZeroNegativeAndJunk)
{
    // strtoull would happily wrap "-3" to a huge value; the validator
    // must reject it instead.
    for (const char *bad : {"0", "-3", "four", "4x", "0x4", ""}) {
        const auto a = parse({"run", "--jobs", bad});
        EXPECT_THROW(a.getPositiveU64("jobs", 1), UserError) << bad;
    }
}

TEST(ArgParser, RepeatableFlagKeepsEveryValueInOrder)
{
    std::vector<const char *> argv{"prog", "run", "--set", "core.rob_size=16",
                                   "--set", "core.issue_width=2"};
    const ArgParser a(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(a.getAll("set"), (std::vector<std::string>{
                                   "core.rob_size=16", "core.issue_width=2"}));
    EXPECT_TRUE(a.getAll("missing").empty());
}

TEST(ArgParser, FlagGivenTwiceIsUserErrorOutsideGetAll)
{
    // Keeping only the last value would silently drop the earlier ones.
    const auto a = parse({"run", "--set", "core.rob_size=16", "--set",
                          "core.issue_width=2", "--csv", "--csv"});
    try {
        a.get("set");
        FAIL() << "a repeated --set was read as one value";
    } catch (const UserError &e) {
        EXPECT_NE(std::string(e.what()).find("--set given twice"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(a.has("csv"), UserError);
    EXPECT_THROW(a.getU64("set", 0), UserError);
}

TEST(ArgParser, U64RejectsSignsAndOverflowNamingTheFlag)
{
    // strtoull wraps "-5" to 2^64 - 5 and saturates on overflow.
    for (const char *bad : {"-5", "+5", " 5", "18446744073709551616"}) {
        const auto a = parse({"true-ipc", "--insts", bad});
        try {
            a.getU64("insts", 0);
            ADD_FAILURE() << "--insts '" << bad << "' was accepted";
        } catch (const UserError &e) {
            EXPECT_NE(std::string(e.what()).find("--insts"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ArgParser, BoundedIntegersRejectValuesAboveTheirType)
{
    // A truncating cast would turn `--port 70000` into port 4464.
    const auto a = parse({"serve", "--port", "70000", "--shards",
                          "4294967296"});
    EXPECT_THROW(a.getU64("port", 0, 65535), UserError);
    EXPECT_EQ(a.getU64("port", 0, 70000), 70000u);
    EXPECT_THROW(a.getPositiveU64("shards", 1, 4294967295u), UserError);
    try {
        a.getU64("port", 0, 65535);
    } catch (const UserError &e) {
        EXPECT_NE(std::string(e.what()).find("--port must be at most 65535"),
                  std::string::npos)
            << e.what();
    }
}

/** A one-command program whose command takes @p flags. */
Program
oneCommand(const Flags &flags)
{
    return {"prog", {{"sample", "", flags, nullptr}}, ""};
}

TEST(ArgParser, UnknownFlagRejectedWithSuggestion)
{
    // The classic typo: --cluster-sizes used to be silently ignored.
    const auto a = parse({"sample", "--cluster-sizes", "3000"});
    const Program p = oneCommand(
        {{"clusters", "C"}, {"cluster-size", "S"}, {"workload", "W"}});
    try {
        requireDeclaredFlags(p, p.commands[0], a);
        FAIL() << "requireDeclaredFlags did not throw";
    } catch (const UserError &e) {
        EXPECT_NE(std::string(e.what()).find("--cluster-sizes"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find(
                      "did you mean --cluster-size?"),
                  std::string::npos);
    }
}

TEST(ArgParser, DeclaredFlagsAreAccepted)
{
    const auto a = parse({"sample", "--workload", "gcc"});
    const Program p = oneCommand({{"workload", "W"}, {"insts", "N"}});
    EXPECT_NO_THROW(requireDeclaredFlags(p, p.commands[0], a));
}

TEST(SplitList, DropsEmptyItems)
{
    EXPECT_EQ(splitList("gcc,,mcf,"),
              (std::vector<std::string>{"gcc", "mcf"}));
    EXPECT_TRUE(splitList("").empty());
}

// A small program for the runner: two commands share --cluster and
// --csv, and `check` always fails with an I/O error.
int g_handlerRuns = 0;

int
countRun(const ArgParser &)
{
    ++g_handlerRuns;
    return 0;
}

int
failRun(const ArgParser &)
{
    rsr_throw_io("disk gone");
}

const Program &
toy()
{
    static const Program p{
        "toy",
        {{"build", "build it", {{"jobs", "N"}, {"cluster", "C"}, {"csv", ""}},
          countRun},
         {"show", "show it", {{"cluster", "C"}, {"csv", ""}}, countRun,
          "display"},
         {"check", "check it", {{"clusters", "C"}, {"cluster-size", "S"}},
          failRun}},
        "exit status: 0 ok\n"};
    return p;
}

/** runProgram(@p program) on `prog <tokens>`, with what it printed. */
struct RunOutput
{
    int status;
    std::string out;
    std::string err;
};

RunOutput
run(const Program &program, std::initializer_list<const char *> tokens,
    int error_status = 1)
{
    std::vector<const char *> argv{"prog"};
    argv.insert(argv.end(), tokens.begin(), tokens.end());
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    const int status = runProgram(program, static_cast<int>(argv.size()),
                                  argv.data(), error_status);
    std::string out = testing::internal::GetCapturedStdout();
    return {status, out, testing::internal::GetCapturedStderr()};
}

TEST(CommandLine, HelpListsEveryDeclaredFlag)
{
    const std::string help = helpText(toy());
    EXPECT_NE(help.find("usage: toy <command>"), std::string::npos);
    for (const Command &c : toy().commands) {
        // Each command's flags follow its own summary line.
        const auto at = help.find("  " + c.name + " ");
        ASSERT_NE(at, std::string::npos) << c.name;
        const std::string section = help.substr(at, help.find(
            '\n', help.find('\n', at) + 1) - at);
        for (const Flag &f : c.flags)
            EXPECT_NE(section.find("--" + f.name +
                                   (f.value.empty() ? "" : " " + f.value)),
                      std::string::npos)
                << c.name << " --" << f.name << "\n" << help;
    }
    EXPECT_NE(help.find("(alias: display)"), std::string::npos);
    EXPECT_NE(help.find("exit status: 0 ok"), std::string::npos);
}

TEST(CommandLine, UndeclaredFlagNamesNearestFlagAndTakers)
{
    const auto a = parse({"check", "--cluster", "3"});
    try {
        requireDeclaredFlags(toy(), toy().commands[2], a);
        FAIL() << "an undeclared flag was accepted";
    } catch (const UserError &e) {
        EXPECT_STREQ(e.what(), "check does not take --cluster (did you "
                               "mean --clusters?); it applies to build "
                               "and show");
    }
    const RunOutput r = run(toy(), {"check", "--cluster", "3"});
    EXPECT_EQ(r.status, 1);
    EXPECT_NE(r.err.find("fatal [user-error]: check does not take "
                         "--cluster"),
              std::string::npos)
        << r.err;
}

TEST(CommandLine, HelpRunsNoHandler)
{
    g_handlerRuns = 0;
    for (const auto &tokens :
         {std::vector<const char *>{"build", "--help"},
          std::vector<const char *>{"--help"},
          std::vector<const char *>{"build", "--jobs", "2", "--help"},
          std::vector<const char *>{"build", "--bogus", "--help"}}) {
        std::vector<const char *> argv{"prog"};
        argv.insert(argv.end(), tokens.begin(), tokens.end());
        testing::internal::CaptureStdout();
        const int status = runProgram(
            toy(), static_cast<int>(argv.size()), argv.data());
        const std::string out = testing::internal::GetCapturedStdout();
        EXPECT_EQ(status, 0);
        EXPECT_NE(out.find("usage: toy"), std::string::npos);
    }
    EXPECT_EQ(g_handlerRuns, 0);
}

TEST(CommandLine, CommandWordPicksTheHandler)
{
    g_handlerRuns = 0;
    EXPECT_EQ(run(toy(), {"build", "--jobs", "2"}).status, 0);
    EXPECT_EQ(run(toy(), {"display", "--csv"}).status, 0);
    EXPECT_EQ(g_handlerRuns, 2);
    // No command is a request for help; an unknown one is an error.
    const RunOutput none = run(toy(), {});
    EXPECT_EQ(none.status, 0);
    EXPECT_NE(none.out.find("usage: toy"), std::string::npos);
    const RunOutput unknown = run(toy(), {"bulid"}, 7);
    EXPECT_EQ(unknown.status, 7);
    EXPECT_NE(unknown.out.find("usage: toy"), std::string::npos);
    EXPECT_EQ(g_handlerRuns, 2);
}

TEST(CommandLine, SingleCommandRefusesPositional)
{
    const Program one{"one", {{"one", "do it", {{"quick", ""}}, countRun}},
                      ""};
    g_handlerRuns = 0;
    const RunOutput stray = run(one, {"extra", "--quick"});
    EXPECT_EQ(stray.status, 1);
    EXPECT_NE(stray.err.find("fatal [user-error]: one takes no "
                             "positional argument, got 'extra'"),
              std::string::npos)
        << stray.err;
    // A stray token after a flag's value is a parse error, still typed.
    const RunOutput late = run(one, {"--quick", "--out", "x", "y"}, 2);
    EXPECT_EQ(late.status, 2);
    EXPECT_NE(late.err.find("fatal [user-error]: expected a --flag, got "
                            "'y'"),
              std::string::npos)
        << late.err;
    EXPECT_EQ(g_handlerRuns, 0);
    EXPECT_EQ(run(one, {"--quick"}).status, 0);
    EXPECT_EQ(g_handlerRuns, 1);
    EXPECT_EQ(run(one, {"--help"}).out.find("usage: one [flags]"), 0u);
}

TEST(CommandLine, HandlerSimErrorReturnsErrorStatus)
{
    const RunOutput r = run(toy(), {"check"}, 2);
    EXPECT_EQ(r.status, 2);
    EXPECT_EQ(r.err, "fatal [io]: disk gone\n");
    EXPECT_EQ(run(toy(), {"check"}).status, 1);
}

TEST(NearestName, PicksClosestWithinCutoff)
{
    const std::set<std::string> names{"cluster-size", "clusters", "seed"};
    EXPECT_EQ(nearestName("cluster-sizes", names), "cluster-size");
    EXPECT_EQ(nearestName("sede", names), "seed");
    // Nothing remotely close: no suggestion.
    EXPECT_EQ(nearestName("zzzzzzzzzz", names), "");
}

TEST(PolicyByName, AllStandardNames)
{
    using core::makePolicyByName;
    EXPECT_EQ(makePolicyByName("none")->name(), "None");
    EXPECT_EQ(makePolicyByName("smarts")->name(), "S$BP");
    EXPECT_EQ(makePolicyByName("scache")->name(), "S$");
    EXPECT_EQ(makePolicyByName("sbp")->name(), "SBP");
    EXPECT_EQ(makePolicyByName("fp40")->name(), "FP (40%)");
    EXPECT_EQ(makePolicyByName("rsr20")->name(), "R$BP (20%)");
    EXPECT_EQ(makePolicyByName("rsr100")->name(), "R$BP (100%)");
    EXPECT_EQ(makePolicyByName("rcache80")->name(), "R$ (80%)");
    EXPECT_EQ(makePolicyByName("rbp")->name(), "RBP");
    EXPECT_EQ(makePolicyByName("rsr20+stale")->name(),
              "R$BP (20%)+stale");
}

TEST(PolicyByName, UnknownThrowsUserError)
{
    try {
        core::makePolicyByName("warmify");
        FAIL() << "makePolicyByName did not throw";
    } catch (const UserError &e) {
        EXPECT_NE(std::string(e.what()).find("unknown warm-up policy"),
                  std::string::npos);
    }
}

TEST(PolicyByName, BadPercentThrowsUserError)
{
    EXPECT_THROW(core::makePolicyByName("rsr0"), UserError);
    EXPECT_THROW(core::makePolicyByName("fpxx"), UserError);
}

TEST(PolicyByName, NonCanonicalNamesThrowUserErrorNamingThePolicy)
{
    // One name per policy: +stale only where it changes the policy (the
    // RSR predictor side), and one spelling per percentage, so a store
    // made under one name is not rejected as stale under another.
    for (const char *name :
         {"smarts+stale", "none+stale", "fp20+stale", "scache+stale",
          "mrrl+stale", "rsr020", "rcache080", "fp020", "rsr00", "rsr101",
          "rsr20x", "rsr+20", "rsr-20", "rsr 20", "rsr20+stale+stale"}) {
        try {
            core::makePolicyByName(name);
            ADD_FAILURE() << name << " was accepted";
        } catch (const UserError &e) {
            EXPECT_NE(std::string(e.what()).find(std::string("'") + name +
                                                 "'"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(core::makePolicyByName("rcache100+stale")->name(),
              "R$ (100%)+stale");
    EXPECT_EQ(core::makePolicyByName("rbp+stale")->name(), "RBP+stale");
    EXPECT_EQ(core::makePolicyByName("fp1")->name(), "FP (1%)");
}

} // namespace
} // namespace rsr
