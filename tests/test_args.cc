/**
 * @file
 * Tests for the command-line argument parser and the policy-by-name
 * factory used by the rsr_sim tool.
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

TEST(ArgParser, UnknownFlagRejectedWithSuggestion)
{
    // The classic typo: --cluster-sizes used to be silently ignored.
    const auto a = parse({"sample", "--cluster-sizes", "3000"});
    try {
        a.requireKnown({"clusters", "cluster-size", "workload"});
        FAIL() << "requireKnown did not throw";
    } catch (const UserError &e) {
        EXPECT_NE(std::string(e.what()).find("--cluster-sizes"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find(
                      "did you mean --cluster-size?"),
                  std::string::npos);
    }
}

TEST(ArgParser, RequireKnownAcceptsValidFlags)
{
    const auto a = parse({"sample", "--workload", "gcc"});
    EXPECT_NO_THROW(a.requireKnown({"workload", "insts"}));
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
