/**
 * @file
 * The rsr_sim serve wire protocol: versioned, checksummed,
 * length-prefixed frames over a byte stream (see docs/SERVE.md for the
 * full specification and failure-mode table).
 *
 * Every frame is a fixed 28-byte little-endian header followed by a
 * bounded payload:
 *
 *   u32 magic      'RSRV'
 *   u8  version    kProtocolVersion
 *   u8  type       FrameType
 *   u16 reserved   must be 0
 *   u64 requestId  client-chosen, echoed in the response
 *   u32 payloadLen <= kMaxPayload
 *   u64 checksum   FNV-1a-64 of the 20 header bytes above + payload
 *
 * Decoding is defensive by construction: every malformed input — bad
 * magic, version skew, oversized length, truncation, checksum mismatch,
 * trailing garbage — throws CorruptInputError (never InternalError, and
 * never death), because the bytes come from an untrusted network peer.
 */

#ifndef RSR_SERVE_PROTOCOL_HH
#define RSR_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/sampled_sim.hh"

namespace rsr::serve
{

constexpr std::uint32_t kMagic = 0x56525352u; // 'RSRV' little-endian
constexpr std::uint8_t kProtocolVersion = 1;
constexpr std::size_t kHeaderBytes = 28;
/** Upper bound on payload size; larger lengths are rejected as corrupt
 *  before any allocation, so a hostile length cannot balloon memory. */
constexpr std::uint32_t kMaxPayload = 1u << 20;

/** Frame types. Responses echo the request's requestId. */
enum class FrameType : std::uint8_t
{
    Ping = 1,
    Pong = 2,
    SimRequest = 3,
    SimResponse = 4,   ///< payload: flat JSON result object
    StatsRequest = 5,
    StatsResponse = 6, ///< payload: flat JSON counters object
    Error = 7,         ///< payload: flat JSON {error_kind, message, retryable}
    Busy = 8,          ///< payload: flat JSON {retry_after_ms, queue_depth, shed}
    Drain = 9,         ///< admin: begin graceful drain, then exit
    Ack = 10,
};

/** Human-readable frame-type name for logs and errors. */
const char *frameTypeName(FrameType type);

/** One decoded (or to-be-encoded) frame. */
struct Frame
{
    FrameType type = FrameType::Ping;
    std::uint64_t requestId = 0;
    std::vector<std::uint8_t> payload;

    std::string
    payloadText() const
    {
        return std::string(payload.begin(), payload.end());
    }
};

/** Encode @p frame as header + payload bytes. */
std::vector<std::uint8_t> encodeFrame(const Frame &frame);

/** Build a frame whose payload is @p text. */
Frame textFrame(FrameType type, std::uint64_t request_id,
                const std::string &text);

/**
 * Decode one complete frame from @p bytes, which must contain exactly
 * one frame (header + payload, nothing trailing). Throws
 * CorruptInputError on any damage.
 */
Frame decodeFrame(const std::vector<std::uint8_t> &bytes);

/**
 * Validate a 28-byte header prefix and return its payload length.
 * Stream receivers call this after reading kHeaderBytes to learn how
 * many payload bytes to read next. Throws CorruptInputError on bad
 * magic, version skew, nonzero reserved bits, or an oversized length.
 */
std::uint32_t validateHeader(const std::uint8_t *header);

/**
 * One simulation request: everything needed to reproduce a sampled run,
 * in canonical form so that equal requests hash equally.
 */
struct SimRequest
{
    std::string workload;
    std::string policy;
    std::uint64_t insts = 300'000;
    std::uint64_t clusters = 10;
    std::uint64_t clusterSize = 2000;
    std::uint64_t seed = 0x5eed;
    /** Base machine: "scaled" or "paper". */
    std::string machineKind = "scaled";
    /** `key=value` machine overrides, canonically sorted by key.
     *  Requests whose resolved machines differ only in timing (`core.*`)
     *  fields share one captured live-point store. */
    std::vector<std::string> overrides;
    /** Per-request deadline in milliseconds (0 = server default). */
    std::uint32_t deadlineMs = 0;

    /** Sort overrides into canonical order (called by encode/decode). */
    void canonicalize();

    /**
     * FNV-1a-64 content hash of the whole request (excluding the
     * deadline, which does not change the answer) — the result-cache
     * key.
     */
    std::uint64_t requestHash() const;

    /** The sampled run this request asks for: the base machine with
     *  every override applied (UserError on a bad machine). */
    core::SampledConfig sampledConfig() const;

    /** The timing-only (`core.*`) overrides (perfbench's split). */
    std::vector<std::string> timingOverrides() const;
    /** The geometry (non-`core.*`) overrides. */
    std::vector<std::string> captureOverrides() const;
};

/** Encode @p request as a SimRequest frame payload. */
std::vector<std::uint8_t> encodeSimRequest(const SimRequest &request);

/** Inverse of encodeSimRequest(); throws CorruptInputError. */
SimRequest decodeSimRequest(const std::vector<std::uint8_t> &payload);

/** Serialize the request as one JSON line (for the request journal). */
std::string simRequestJson(const SimRequest &request);

/** Inverse of simRequestJson(); throws CorruptInputError. */
SimRequest simRequestFromJson(const std::string &text);

} // namespace rsr::serve

#endif // RSR_SERVE_PROTOCOL_HH
