#include "protocol.hh"

#include <algorithm>

#include "core/config_file.hh"
#include "harness/json.hh"
#include "util/checksum.hh"
#include "util/error.hh"
#include "util/serial.hh"

namespace rsr::serve
{

namespace
{

/**
 * Bounds-checked reads for untrusted payloads. ByteSource's own guard
 * throws InternalError (a simulator-bug report); network bytes must
 * instead surface as CorruptInputError, so every read is pre-checked.
 */
void
need(const ByteSource &in, std::size_t n, const char *what)
{
    if (in.remaining() < n)
        rsr_throw_corrupt("truncated frame payload: need ", n,
                          " byte(s) for ", what, ", have ",
                          in.remaining());
}

std::uint32_t
getU32Checked(ByteSource &in, const char *what)
{
    need(in, 4, what);
    return in.getU32();
}

std::uint64_t
getU64Checked(ByteSource &in, const char *what)
{
    need(in, 8, what);
    return in.getU64();
}

std::string
getStringChecked(ByteSource &in, const char *what)
{
    const std::uint32_t len = getU32Checked(in, what);
    if (len > kMaxPayload)
        rsr_throw_corrupt("string length ", len, " for ", what,
                          " exceeds the frame payload bound");
    need(in, len, what);
    std::string s(len, '\0');
    if (len > 0)
        in.getBytes(s.data(), len);
    return s;
}

void
putString(ByteSink &out, const std::string &s)
{
    out.putU32(static_cast<std::uint32_t>(s.size()));
    out.putBytes(s.data(), s.size());
}

bool
isTimingOverride(const std::string &kv)
{
    return kv.rfind("core.", 0) == 0;
}

} // namespace

const char *
frameTypeName(FrameType type)
{
    switch (type) {
    case FrameType::Ping: return "ping";
    case FrameType::Pong: return "pong";
    case FrameType::SimRequest: return "sim-request";
    case FrameType::SimResponse: return "sim-response";
    case FrameType::StatsRequest: return "stats-request";
    case FrameType::StatsResponse: return "stats-response";
    case FrameType::Error: return "error";
    case FrameType::Busy: return "busy";
    case FrameType::Drain: return "drain";
    case FrameType::Ack: return "ack";
    }
    return "unknown";
}

std::vector<std::uint8_t>
encodeFrame(const Frame &frame)
{
    if (frame.payload.size() > kMaxPayload)
        rsr_throw_internal("frame payload of ", frame.payload.size(),
                           " bytes exceeds kMaxPayload");
    ByteSink out;
    out.putU32(kMagic);
    out.putU8(kProtocolVersion);
    out.putU8(static_cast<std::uint8_t>(frame.type));
    out.putU8(0);
    out.putU8(0);
    out.putU64(frame.requestId);
    out.putU32(static_cast<std::uint32_t>(frame.payload.size()));
    // The checksum covers the header prefix as well as the payload, so
    // a bit flip landing on an unvalidated header field (frame type,
    // requestId) is caught just like one in the payload.
    Fnv64 h;
    h.update(out.bytes().data(), out.bytes().size());
    h.update(frame.payload.data(), frame.payload.size());
    out.putU64(h.value());
    out.putBytes(frame.payload.data(), frame.payload.size());
    return out.take();
}

Frame
textFrame(FrameType type, std::uint64_t request_id,
          const std::string &text)
{
    Frame f;
    f.type = type;
    f.requestId = request_id;
    f.payload.assign(text.begin(), text.end());
    return f;
}

std::uint32_t
validateHeader(const std::uint8_t *header)
{
    ByteSource in(header, kHeaderBytes);
    if (in.getU32() != kMagic)
        rsr_throw_corrupt("bad frame magic (not an rsr_sim serve peer, "
                          "or a corrupted stream)");
    const std::uint8_t version = in.getU8();
    if (version != kProtocolVersion)
        rsr_throw_corrupt("protocol version skew: peer speaks v",
                          unsigned{version}, ", this build speaks v",
                          unsigned{kProtocolVersion});
    const std::uint8_t type = in.getU8();
    if (type < static_cast<std::uint8_t>(FrameType::Ping) ||
        type > static_cast<std::uint8_t>(FrameType::Ack))
        rsr_throw_corrupt("unknown frame type ", unsigned{type});
    if (in.getU8() != 0 || in.getU8() != 0)
        rsr_throw_corrupt("nonzero reserved bits in frame header");
    in.getU64(); // requestId: any value is legal
    const std::uint32_t payload_len = in.getU32();
    if (payload_len > kMaxPayload)
        rsr_throw_corrupt("frame payload length ", payload_len,
                          " exceeds the ", kMaxPayload, "-byte bound");
    return payload_len;
}

Frame
decodeFrame(const std::vector<std::uint8_t> &bytes)
{
    if (bytes.size() < kHeaderBytes)
        rsr_throw_corrupt("truncated frame: ", bytes.size(),
                          " byte(s) is shorter than the ", kHeaderBytes,
                          "-byte header");
    const std::uint32_t payload_len = validateHeader(bytes.data());
    if (bytes.size() != kHeaderBytes + payload_len)
        rsr_throw_corrupt("frame length mismatch: header promises ",
                          payload_len, " payload byte(s), buffer holds ",
                          bytes.size() - kHeaderBytes);

    ByteSource in(bytes.data() + 4, kHeaderBytes - 4);
    in.getU8(); // version (validated above)
    Frame f;
    f.type = static_cast<FrameType>(in.getU8());
    in.getU8();
    in.getU8();
    f.requestId = in.getU64();
    in.getU32(); // payloadLen (validated above)
    const std::uint64_t want = in.getU64();
    f.payload.assign(bytes.begin() + kHeaderBytes, bytes.end());
    Fnv64 h;
    h.update(bytes.data(), kHeaderBytes - 8); // header sans checksum
    h.update(f.payload.data(), f.payload.size());
    if (h.value() != want)
        rsr_throw_corrupt("frame checksum mismatch (stored ",
                          checksumHex(want), ", computed ",
                          checksumHex(h.value()),
                          ") — bit flip or torn write");
    return f;
}

void
SimRequest::canonicalize()
{
    std::sort(overrides.begin(), overrides.end());
}

std::uint64_t
SimRequest::requestHash() const
{
    Fnv64 h;
    h.update(workload);
    h.update("|");
    h.update(policy);
    h.update("|");
    for (std::uint64_t v : {insts, clusters, clusterSize, seed})
        h.update(&v, sizeof(v));
    h.update(machineKind);
    for (const std::string &kv : overrides) {
        h.update("|");
        h.update(kv);
    }
    return h.value();
}

core::SampledConfig
SimRequest::sampledConfig() const
{
    core::SampledConfig cfg;
    cfg.regimen = {clusters, clusterSize};
    cfg.totalInsts = insts;
    cfg.scheduleSeed = seed;
    cfg.machine = core::baseMachine(machineKind);
    for (const std::string &kv : overrides)
        core::applyMachineSetting(cfg.machine, kv);
    core::checkMachine(cfg.machine);
    return cfg;
}

std::vector<std::string>
SimRequest::timingOverrides() const
{
    std::vector<std::string> out;
    for (const std::string &kv : overrides)
        if (isTimingOverride(kv))
            out.push_back(kv);
    return out;
}

std::vector<std::string>
SimRequest::captureOverrides() const
{
    std::vector<std::string> out;
    for (const std::string &kv : overrides)
        if (!isTimingOverride(kv))
            out.push_back(kv);
    return out;
}

std::vector<std::uint8_t>
encodeSimRequest(const SimRequest &request)
{
    SimRequest canon = request;
    canon.canonicalize();
    ByteSink out;
    putString(out, canon.workload);
    putString(out, canon.policy);
    out.putU64(canon.insts);
    out.putU64(canon.clusters);
    out.putU64(canon.clusterSize);
    out.putU64(canon.seed);
    putString(out, canon.machineKind);
    out.putU32(static_cast<std::uint32_t>(canon.overrides.size()));
    for (const std::string &kv : canon.overrides)
        putString(out, kv);
    out.putU32(canon.deadlineMs);
    return out.take();
}

SimRequest
decodeSimRequest(const std::vector<std::uint8_t> &payload)
{
    ByteSource in(payload);
    SimRequest r;
    r.workload = getStringChecked(in, "workload");
    r.policy = getStringChecked(in, "policy");
    r.insts = getU64Checked(in, "insts");
    r.clusters = getU64Checked(in, "clusters");
    r.clusterSize = getU64Checked(in, "cluster-size");
    r.seed = getU64Checked(in, "seed");
    r.machineKind = getStringChecked(in, "machine kind");
    const std::uint32_t n = getU32Checked(in, "override count");
    if (n > 1024)
        rsr_throw_corrupt("implausible override count ", n);
    r.overrides.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i)
        r.overrides.push_back(getStringChecked(in, "override"));
    r.deadlineMs = getU32Checked(in, "deadline");
    if (!in.exhausted())
        rsr_throw_corrupt(in.remaining(),
                          " trailing byte(s) after the sim request");
    r.canonicalize();
    return r;
}

std::string
simRequestJson(const SimRequest &request)
{
    SimRequest canon = request;
    canon.canonicalize();
    harness::JsonWriter w;
    w.put("workload", canon.workload)
        .put("policy", canon.policy)
        .put("insts", canon.insts)
        .put("clusters", canon.clusters)
        .put("cluster_size", canon.clusterSize)
        .put("seed", canon.seed)
        .put("machine", canon.machineKind)
        .put("deadline_ms", std::uint64_t{canon.deadlineMs})
        .put("num_overrides",
             static_cast<std::uint64_t>(canon.overrides.size()));
    for (std::size_t i = 0; i < canon.overrides.size(); ++i)
        w.put("override_" + std::to_string(i), canon.overrides[i]);
    return w.str();
}

SimRequest
simRequestFromJson(const std::string &text)
{
    const auto obj = harness::parseJsonObject(text);
    auto get = [&](const char *key) -> const std::string & {
        const auto it = obj.find(key);
        if (it == obj.end())
            rsr_throw_corrupt("journaled request is missing '", key,
                              "'");
        return it->second;
    };
    SimRequest r;
    r.workload = get("workload");
    r.policy = get("policy");
    r.insts = harness::jsonU64(obj, "insts");
    r.clusters = harness::jsonU64(obj, "clusters");
    r.clusterSize = harness::jsonU64(obj, "cluster_size");
    r.seed = harness::jsonU64(obj, "seed");
    r.machineKind = get("machine");
    r.deadlineMs =
        static_cast<std::uint32_t>(harness::jsonU64(obj, "deadline_ms"));
    const std::uint64_t n = harness::jsonU64(obj, "num_overrides");
    if (n > 1024)
        rsr_throw_corrupt("implausible journaled override count ", n);
    for (std::uint64_t i = 0; i < n; ++i)
        r.overrides.push_back(get(
            ("override_" + std::to_string(i)).c_str()));
    r.canonicalize();
    return r;
}

} // namespace rsr::serve
