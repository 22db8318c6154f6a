#include "config_file.hh"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

#include "util/logging.hh"

namespace rsr::core
{

namespace
{

std::string
trim(const std::string &s)
{
    const auto b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    const auto e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

std::uint64_t
parseValue(const std::string &key, const std::string &value)
{
    char *end = nullptr;
    const auto v = std::strtoull(value.c_str(), &end, 0);
    if (!end || *end != '\0' || value.empty())
        rsr_throw_user("config key '", key, "' expects an integer, got '",
                       value, "'");
    return v;
}

} // namespace

void
applyMachineOption(MachineConfig &config, const std::string &key,
                   const std::string &value)
{
    const std::uint64_t v = parseValue(key, value);
    const auto u32 = static_cast<std::uint32_t>(v);

    auto cache_field = [&](cache::CacheParams &p,
                           const std::string &field) {
        if (field == "size_bytes")
            p.sizeBytes = v;
        else if (field == "assoc")
            p.assoc = u32;
        else if (field == "line_bytes")
            p.lineBytes = u32;
        else if (field == "hit_latency")
            p.hitLatency = u32;
        else
            rsr_throw_user("unknown cache config field in key '", key,
                           "'");
    };

    const auto dot = key.find('.');
    if (dot == std::string::npos)
        rsr_throw_user("config key '", key,
                       "' needs a '<section>.<field>' form");
    const std::string section = key.substr(0, dot);
    const std::string field = key.substr(dot + 1);

    if (section == "il1") {
        cache_field(config.hier.il1, field);
    } else if (section == "dl1") {
        cache_field(config.hier.dl1, field);
    } else if (section == "l2") {
        cache_field(config.hier.l2, field);
    } else if (section == "l1bus" || section == "l2bus") {
        auto &bus = section == "l1bus" ? config.hier.l1Bus
                                       : config.hier.l2Bus;
        if (field == "width_bytes")
            bus.widthBytes = u32;
        else if (field == "cpu_cycles_per_bus_cycle")
            bus.cpuCyclesPerBusCycle = u32;
        else
            rsr_throw_user("unknown bus config field in key '", key, "'");
    } else if (section == "mem") {
        if (field == "latency")
            config.hier.memLatency = v;
        else
            rsr_throw_user("unknown mem config field in key '", key, "'");
    } else if (section == "bp") {
        if (field == "pht_entries")
            config.bp.phtEntries = u32;
        else if (field == "history_bits")
            config.bp.historyBits = u32;
        else if (field == "btb_entries")
            config.bp.btbEntries = u32;
        else if (field == "ras_entries")
            config.bp.rasEntries = u32;
        else
            rsr_throw_user("unknown bp config field in key '", key, "'");
    } else if (section == "core") {
        static const std::map<std::string,
                              unsigned uarch::CoreParams::*>
            fields{
                {"fetch_width", &uarch::CoreParams::fetchWidth},
                {"dispatch_width", &uarch::CoreParams::dispatchWidth},
                {"issue_width", &uarch::CoreParams::issueWidth},
                {"retire_width", &uarch::CoreParams::retireWidth},
                {"rob_size", &uarch::CoreParams::robSize},
                {"iq_size", &uarch::CoreParams::iqSize},
                {"lsq_size", &uarch::CoreParams::lsqSize},
                {"num_fus", &uarch::CoreParams::numFUs},
                {"frontend_delay", &uarch::CoreParams::frontendDelay},
                {"min_mispredict_penalty",
                 &uarch::CoreParams::minMispredictPenalty},
                {"max_unresolved_branches",
                 &uarch::CoreParams::maxUnresolvedBranches},
                {"fetch_buffer_size",
                 &uarch::CoreParams::fetchBufferSize},
                {"int_alu_lat", &uarch::CoreParams::intAluLat},
                {"int_mul_lat", &uarch::CoreParams::intMulLat},
                {"int_div_lat", &uarch::CoreParams::intDivLat},
                {"fp_add_lat", &uarch::CoreParams::fpAddLat},
                {"fp_mul_lat", &uarch::CoreParams::fpMulLat},
                {"fp_div_lat", &uarch::CoreParams::fpDivLat},
                {"forward_latency", &uarch::CoreParams::forwardLatency},
            };
        if (field == "store_forwarding") {
            config.core.storeForwarding = v != 0;
            return;
        }
        const auto it = fields.find(field);
        if (it == fields.end())
            rsr_throw_user("unknown core config field in key '", key,
                           "'");
        config.core.*(it->second) = u32;
    } else {
        rsr_throw_user("unknown config section in key '", key, "'");
    }
}

void
applyMachineSetting(MachineConfig &config, const std::string &key_value)
{
    const auto eq = key_value.find('=');
    if (eq == std::string::npos)
        rsr_throw_user("machine setting expects key=value, got '",
                       key_value, "'");
    applyMachineOption(config, key_value.substr(0, eq),
                       key_value.substr(eq + 1));
}

MachineConfig
baseMachine(const std::string &kind)
{
    if (kind == "scaled")
        return MachineConfig::scaledDefault();
    if (kind == "paper")
        return MachineConfig::paperDefault();
    rsr_throw_user("machine must be 'scaled' or 'paper', got '", kind,
                   "'");
}

MachineConfig
parseMachineConfig(const std::string &text, MachineConfig base)
{
    std::istringstream in(text);
    std::string raw;
    unsigned lineno = 0;
    while (std::getline(in, raw)) {
        ++lineno;
        const auto hash = raw.find('#');
        const std::string line =
            trim(hash == std::string::npos ? raw : raw.substr(0, hash));
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            rsr_throw_user("config line ", lineno,
                           " is not 'key = value': '", line, "'");
        applyMachineOption(base, trim(line.substr(0, eq)),
                           trim(line.substr(eq + 1)));
    }
    return base;
}

MachineConfig
loadMachineConfig(const std::string &path, MachineConfig base)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        rsr_throw_user("cannot open config file: ", path);
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return parseMachineConfig(text, base);
}

} // namespace rsr::core
