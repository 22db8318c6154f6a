#include "config_file.hh"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <type_traits>

#include "util/bitutil.hh"
#include "util/error.hh"
#include "util/fileio.hh"
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
    errno = 0;
    const auto v = std::strtoull(value.c_str(), &end, 0);
    // strtoull negates a leading '-' instead of refusing it.
    if (!end || *end != '\0' || value.empty() ||
        value.find('-') != std::string::npos || errno == ERANGE)
        rsr_throw_user("config key '", key,
                       "' expects an unsigned integer, got '", value, "'");
    return v;
}

/** What a machine field shapes. */
enum class FieldRole : std::uint8_t
{
    Capture, ///< the warmed state a capture holds: in the capture key
    Timing,  ///< `core.*`: the timing model only
};

/** One row of the machine schema. */
struct MachineField
{
    /** The `section.field` key, or nullptr for a field no key sets (the
     *  cache write policies, which the base machine fixes). */
    const char *key;
    /** Bytes the field takes in schema bytes: 1, 4 or 8. */
    unsigned width;
    FieldRole role;
    /** The legal values a key may set: [lowest, highest], and a power
     *  of two where pow2 says so. The model cannot run other values (a
     *  zero-wide stage never progresses; the caches and the predictor
     *  index by power-of-two masks). */
    std::uint64_t lowest;
    std::uint64_t highest;
    bool pow2;
    std::uint64_t (*get)(const MachineConfig &);
    void (*set)(MachineConfig &, std::uint64_t);
};

/** The largest value a field of type @p T holds: 1 for a flag. */
template <typename T>
constexpr std::uint64_t
fieldMax()
{
    if constexpr (std::is_same_v<T, bool>)
        return 1;
    else if constexpr (std::is_enum_v<T>)
        return std::numeric_limits<std::underlying_type_t<T>>::max();
    else
        return std::numeric_limits<T>::max();
}

/** The config-error noun for @p section ("cache" for il1/dl1/l2). */
std::string
sectionKind(const std::string &section)
{
    if (section == "il1" || section == "dl1" || section == "l2")
        return "cache";
    if (section == "l1bus" || section == "l2bus")
        return "bus";
    return section;
}

/** A schema row for MachineConfig member @p m, legal in
 *  [lowest, highest] (and a power of two where @p pow2). */
#define RSR_ROW(key, width, role, m, lowest, highest, pow2)                 \
    MachineField{key, width, FieldRole::role, lowest, highest, pow2,        \
                 [](const MachineConfig &c) {                               \
                     return static_cast<std::uint64_t>(c.m);                \
                 },                                                         \
                 [](MachineConfig &c, std::uint64_t v) {                    \
                     c.m = static_cast<decltype(c.m)>(v);                   \
                 }}
/** A row whose highest legal value is the largest its type holds. */
#define RSR_FIELD(key, width, role, m, lowest, pow2)                        \
    RSR_ROW(key, width, role, m, lowest,                                    \
            fieldMax<decltype(MachineConfig{}.m)>(), pow2)
#define RSR_CACHE_FIELDS(sec)                                               \
    RSR_FIELD(#sec ".size_bytes", 8, Capture, hier.sec.sizeBytes, 1,        \
              false),                                                       \
        RSR_ROW(#sec ".assoc", 4, Capture, hier.sec.assoc, 1,               \
                cache::Cache::maxAssoc, false),                             \
        RSR_FIELD(#sec ".line_bytes", 4, Capture, hier.sec.lineBytes, 1,    \
                  true),                                                    \
        RSR_FIELD(nullptr, 1, Capture, hier.sec.writePolicy, 0, false),     \
        RSR_FIELD(#sec ".hit_latency", 4, Capture, hier.sec.hitLatency, 0,  \
                  false)
/** A `core.*` size or width (at least 1) or a latency (at least 0). */
#define RSR_CORE_FIELD(name, m, lowest)                                     \
    RSR_FIELD("core." name, 4, Timing, core.m, lowest, false)

/** Every MachineConfig field, in schema-byte order. */
const std::vector<MachineField> &
machineSchema()
{
    static const std::vector<MachineField> schema{
        RSR_CACHE_FIELDS(il1),
        RSR_CACHE_FIELDS(dl1),
        RSR_CACHE_FIELDS(l2),
        RSR_FIELD("l1bus.width_bytes", 4, Capture, hier.l1Bus.widthBytes,
                  1, false),
        RSR_FIELD("l1bus.cpu_cycles_per_bus_cycle", 4, Capture,
                  hier.l1Bus.cpuCyclesPerBusCycle, 1, false),
        RSR_FIELD("l2bus.width_bytes", 4, Capture, hier.l2Bus.widthBytes,
                  1, false),
        RSR_FIELD("l2bus.cpu_cycles_per_bus_cycle", 4, Capture,
                  hier.l2Bus.cpuCyclesPerBusCycle, 1, false),
        RSR_FIELD("mem.latency", 8, Capture, hier.memLatency, 0, false),
        RSR_FIELD("bp.pht_entries", 4, Capture, bp.phtEntries, 1, true),
        // The global history register is 32 bits wide.
        RSR_ROW("bp.history_bits", 4, Capture, bp.historyBits, 0, 32,
                false),
        RSR_FIELD("bp.btb_entries", 4, Capture, bp.btbEntries, 1, true),
        RSR_FIELD("bp.ras_entries", 4, Capture, bp.rasEntries, 1, false),
        RSR_CORE_FIELD("fetch_width", fetchWidth, 1),
        RSR_CORE_FIELD("dispatch_width", dispatchWidth, 1),
        RSR_CORE_FIELD("issue_width", issueWidth, 1),
        RSR_CORE_FIELD("retire_width", retireWidth, 1),
        RSR_CORE_FIELD("rob_size", robSize, 1),
        RSR_CORE_FIELD("iq_size", iqSize, 1),
        RSR_CORE_FIELD("lsq_size", lsqSize, 1),
        RSR_CORE_FIELD("num_fus", numFUs, 1),
        RSR_CORE_FIELD("frontend_delay", frontendDelay, 0),
        RSR_CORE_FIELD("min_mispredict_penalty", minMispredictPenalty, 0),
        RSR_CORE_FIELD("max_unresolved_branches", maxUnresolvedBranches, 1),
        RSR_CORE_FIELD("fetch_buffer_size", fetchBufferSize, 1),
        RSR_CORE_FIELD("int_alu_lat", intAluLat, 0),
        RSR_CORE_FIELD("int_mul_lat", intMulLat, 0),
        RSR_CORE_FIELD("int_div_lat", intDivLat, 0),
        RSR_CORE_FIELD("fp_add_lat", fpAddLat, 0),
        RSR_CORE_FIELD("fp_mul_lat", fpMulLat, 0),
        RSR_CORE_FIELD("fp_div_lat", fpDivLat, 0),
        RSR_CORE_FIELD("forward_latency", forwardLatency, 0),
        RSR_FIELD("core.store_forwarding", 1, Timing, core.storeForwarding,
                  0, false),
    };
    return schema;
}

#undef RSR_CORE_FIELD
#undef RSR_CACHE_FIELDS
#undef RSR_FIELD
#undef RSR_ROW

/** Throw a UserError naming @p f's key unless @p v is legal for it. */
void
checkLegal(const MachineField &f, std::uint64_t v)
{
    if (v < f.lowest)
        rsr_throw_user("config key '", f.key, "' must be at least ",
                       f.lowest, ", got ", v);
    if (v > f.highest)
        rsr_throw_user("config key '", f.key, "' must be at most ",
                       f.highest, ", got ", v);
    if (f.pow2 && !isPowerOf2(v))
        rsr_throw_user("config key '", f.key,
                       "' must be a power of two, got ", v);
}

} // namespace

std::vector<std::uint8_t>
machineBytes(const MachineConfig &m, bool capture_only)
{
    std::vector<std::uint8_t> out;
    for (const MachineField &f : machineSchema()) {
        if (capture_only && f.role != FieldRole::Capture)
            continue;
        const std::uint64_t v = f.get(m);
        for (unsigned i = 0; i < f.width; ++i)
            out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    return out;
}

MachineConfig
machineFromBytes(const std::vector<std::uint8_t> &bytes)
{
    std::size_t want = 0;
    for (const MachineField &f : machineSchema())
        want += f.width;
    if (bytes.size() != want)
        rsr_throw_corrupt("machine config holds ", bytes.size(),
                          " bytes, the machine schema ", want);
    MachineConfig m;
    std::size_t pos = 0;
    for (const MachineField &f : machineSchema()) {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < f.width; ++i)
            v |= std::uint64_t{bytes[pos++]} << (8 * i);
        f.set(m, v);
    }
    return m;
}

void
applyMachineOption(MachineConfig &config, const std::string &key,
                   const std::string &value)
{
    const std::uint64_t v = parseValue(key, value);
    const auto dot = key.find('.');
    if (dot == std::string::npos)
        rsr_throw_user("config key '", key,
                       "' needs a '<section>.<field>' form");
    for (const MachineField &f : machineSchema()) {
        if (f.key && key == f.key) {
            checkLegal(f, v);
            f.set(config, v);
            return;
        }
    }
    const std::string section = key.substr(0, dot + 1);
    for (const MachineField &f : machineSchema())
        if (f.key && std::string(f.key).rfind(section, 0) == 0)
            rsr_throw_user("unknown ", sectionKind(key.substr(0, dot)),
                           " config field in key '", key, "'");
    rsr_throw_user("unknown config section in key '", key, "'");
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

void
checkMachine(const MachineConfig &m)
{
    const std::pair<const char *, const cache::CacheParams *> caches[] = {
        {"il1", &m.hier.il1}, {"dl1", &m.hier.dl1}, {"l2", &m.hier.l2}};
    for (const auto &[sec, c] : caches) {
        const std::uint64_t way_bytes =
            std::uint64_t{c->assoc} * c->lineBytes;
        if (c->sizeBytes % way_bytes != 0 ||
            !isPowerOf2(c->sizeBytes / way_bytes))
            rsr_throw_user("config keys '", sec, ".size_bytes' (",
                           c->sizeBytes, "), '", sec, ".assoc' (",
                           c->assoc, ") and '", sec, ".line_bytes' (",
                           c->lineBytes, ") do not give a power-of-two "
                           "set count: size_bytes / (assoc x line_bytes) "
                           "must be a whole power of two");
    }
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
    const auto bytes = readFileBytes(path);
    return parseMachineConfig(std::string(bytes.begin(), bytes.end()),
                              base);
}

} // namespace rsr::core
