/**
 * @file
 * Machine configuration file tests: key parsing, overrides across every
 * section, comments/whitespace handling, and error cases.
 */

#include <gtest/gtest.h>

#include "core/config_file.hh"
#include "util/error.hh"

namespace rsr::core
{
namespace
{

TEST(ConfigFile, CacheOverrides)
{
    auto mc = parseMachineConfig("dl1.size_bytes = 65536\n"
                                 "dl1.assoc = 8\n"
                                 "il1.hit_latency = 3\n"
                                 "l2.line_bytes = 128\n",
                                 MachineConfig::paperDefault());
    EXPECT_EQ(mc.hier.dl1.sizeBytes, 65536u);
    EXPECT_EQ(mc.hier.dl1.assoc, 8u);
    EXPECT_EQ(mc.hier.il1.hitLatency, 3u);
    EXPECT_EQ(mc.hier.l2.lineBytes, 128u);
    // Untouched fields keep the base values.
    EXPECT_EQ(mc.hier.il1.sizeBytes, 64u * 1024);
}

TEST(ConfigFile, BusAndMemOverrides)
{
    auto mc = parseMachineConfig("l1bus.width_bytes = 32\n"
                                 "l2bus.cpu_cycles_per_bus_cycle = 4\n"
                                 "mem.latency = 400\n",
                                 MachineConfig::paperDefault());
    EXPECT_EQ(mc.hier.l1Bus.widthBytes, 32u);
    EXPECT_EQ(mc.hier.l2Bus.cpuCyclesPerBusCycle, 4u);
    EXPECT_EQ(mc.hier.memLatency, 400u);
}

TEST(ConfigFile, PredictorOverrides)
{
    auto mc = parseMachineConfig("bp.pht_entries = 1024\n"
                                 "bp.history_bits = 10\n"
                                 "bp.btb_entries = 256\n"
                                 "bp.ras_entries = 16\n",
                                 MachineConfig::paperDefault());
    EXPECT_EQ(mc.bp.phtEntries, 1024u);
    EXPECT_EQ(mc.bp.historyBits, 10u);
    EXPECT_EQ(mc.bp.btbEntries, 256u);
    EXPECT_EQ(mc.bp.rasEntries, 16u);
}

TEST(ConfigFile, CoreOverrides)
{
    auto mc = parseMachineConfig("core.issue_width = 2\n"
                                 "core.rob_size = 128\n"
                                 "core.int_div_lat = 40\n"
                                 "core.store_forwarding = 1\n",
                                 MachineConfig::paperDefault());
    EXPECT_EQ(mc.core.issueWidth, 2u);
    EXPECT_EQ(mc.core.robSize, 128u);
    EXPECT_EQ(mc.core.intDivLat, 40u);
    EXPECT_TRUE(mc.core.storeForwarding);
}

TEST(ConfigFile, CommentsAndWhitespace)
{
    auto mc = parseMachineConfig("# a comment line\n"
                                 "\n"
                                 "   core.issue_width=8   # trailing\n"
                                 "\t\n",
                                 MachineConfig::paperDefault());
    EXPECT_EQ(mc.core.issueWidth, 8u);
}

TEST(ConfigFile, HexValues)
{
    auto mc = parseMachineConfig("mem.latency = 0x100\n",
                                 MachineConfig::paperDefault());
    EXPECT_EQ(mc.hier.memLatency, 256u);
}

TEST(ConfigFile, UnknownSectionThrows)
{
    try {
        parseMachineConfig("nic.latency = 5\n",
                           MachineConfig::paperDefault());
        FAIL() << "parseMachineConfig did not throw";
    } catch (const UserError &e) {
        EXPECT_NE(std::string(e.what()).find("unknown config section"),
                  std::string::npos);
    }
}

TEST(ConfigFile, UnknownFieldThrows)
{
    try {
        parseMachineConfig("dl1.banks = 4\n",
                           MachineConfig::paperDefault());
        FAIL() << "parseMachineConfig did not throw";
    } catch (const UserError &e) {
        EXPECT_NE(std::string(e.what()).find("unknown cache config"),
                  std::string::npos);
    }
}

TEST(ConfigFile, MalformedLineThrows)
{
    EXPECT_THROW(parseMachineConfig("dl1.size_bytes 65536\n",
                                    MachineConfig::paperDefault()),
                 UserError);
}

TEST(ConfigFile, NonIntegerValueThrows)
{
    EXPECT_THROW(parseMachineConfig("dl1.size_bytes = big\n",
                                    MachineConfig::paperDefault()),
                 UserError);
}

TEST(ConfigFile, UnrunnableValuesAreUserErrorsNamingTheKey)
{
    // Settings the model cannot run: a zero-wide stage or zero-entry
    // queue never progresses, a value beyond the field's width would be
    // truncated, a flag is 0 or 1, and the caches and predictor index
    // by power-of-two masks.
    static const char *const refused[] = {
        "core.fetch_width=0",
        "core.dispatch_width=0",
        "core.issue_width=0",
        "core.retire_width=0",
        "core.rob_size=0",
        "core.iq_size=0",
        "core.lsq_size=0",
        "core.num_fus=0",
        "core.max_unresolved_branches=0",
        "core.fetch_buffer_size=0",
        "core.rob_size=4294967360",
        "core.rob_size=-1",
        "core.store_forwarding=2",
        "dl1.assoc=0",
        "l2.assoc=512",
        "dl1.line_bytes=48",
        "dl1.size_bytes=0",
        "bp.pht_entries=1000",
        "bp.btb_entries=0",
        "bp.ras_entries=0",
        "bp.history_bits=33",
        "l1bus.width_bytes=0",
        "l2bus.cpu_cycles_per_bus_cycle=0",
        "mem.latency=18446744073709551616",
    };
    const auto base = machineBytes(MachineConfig::paperDefault());
    for (const std::string kv : refused) {
        const std::string key = kv.substr(0, kv.find('='));
        MachineConfig m = MachineConfig::paperDefault();
        try {
            applyMachineSetting(m, kv);
            ADD_FAILURE() << kv << " was accepted";
        } catch (const UserError &e) {
            EXPECT_NE(std::string(e.what()).find("'" + key + "'"),
                      std::string::npos)
                << kv << ": " << e.what();
        }
        EXPECT_EQ(machineBytes(m), base) << kv << " changed the machine";
    }

    // The boundaries themselves are legal.
    static const char *const accepted[] = {
        "core.rob_size=1",
        "core.rob_size=4294967295",
        "core.int_alu_lat=0",
        "core.frontend_delay=0",
        "core.store_forwarding=1",
        "dl1.line_bytes=128",
        "dl1.assoc=3",
        "l2.assoc=256",
        "bp.history_bits=32",
        "bp.pht_entries=1",
        "mem.latency=0",
    };
    for (const std::string kv : accepted) {
        MachineConfig m = MachineConfig::paperDefault();
        EXPECT_NO_THROW(applyMachineSetting(m, kv)) << kv;
    }
}

TEST(ConfigFile, CacheSetCountIsCheckedOnTheResolvedMachine)
{
    // Each key is legal on its own; together they must give a
    // power-of-two set count, or the cache cannot index its sets.
    for (const std::string kv :
         {"dl1.size_bytes=12288", "l2.size_bytes=100", "il1.assoc=3"}) {
        MachineConfig m = MachineConfig::scaledDefault();
        applyMachineSetting(m, kv);
        const std::string sec = kv.substr(0, kv.find('.'));
        try {
            checkMachine(m);
            ADD_FAILURE() << kv << " was accepted";
        } catch (const UserError &e) {
            for (const char *field : {".size_bytes'", ".assoc'",
                                      ".line_bytes'"})
                EXPECT_NE(std::string(e.what()).find("'" + sec + field),
                          std::string::npos)
                    << e.what();
        }
    }

    // The check runs once the whole machine is resolved, so a later key
    // may make an earlier one legal: 12288 / (3 x 64) = 64 sets.
    MachineConfig m = parseMachineConfig("dl1.size_bytes = 12288\n"
                                         "dl1.assoc = 3\n",
                                         MachineConfig::scaledDefault());
    EXPECT_NO_THROW(checkMachine(m));
    Machine machine(m);
    EXPECT_EQ(machine.hier.dl1().numSets(), 64u);
    EXPECT_NO_THROW(checkMachine(MachineConfig::scaledDefault()));
    EXPECT_NO_THROW(checkMachine(MachineConfig::paperDefault()));
}

TEST(ConfigFile, MissingFileThrows)
{
    EXPECT_THROW(loadMachineConfig("/nonexistent/nope.cfg",
                                   MachineConfig::paperDefault()),
                 UserError);
}

} // namespace
} // namespace rsr::core
