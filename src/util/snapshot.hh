/**
 * @file
 * Versioned component serialization for microarchitectural state. Every
 * snapshotable component writes one self-describing frame:
 *
 *   tag (u32 fourcc) | version (u32) | payload length (u64) | payload bytes
 *
 * Frames nest: a machine frame's payload contains the hierarchy frame,
 * which contains the three cache frames, and so on. Frames carry
 * structure, not integrity: restoration checks the tag, then the version,
 * then the payload length before any payload byte is consumed, and
 * throws CorruptInputError on a frame of the wrong component type, a
 * version this build does not read, truncation, or a payload not consumed
 * exactly. Byte damage is the container's to catch: every stored frame is
 * decoded from a live-point store blob or index whose FNV-1a-64 the
 * BlobStoreReader verified when the store was opened (content_store.hh),
 * so each stored byte is hashed once, not once per nesting level.
 */

#ifndef RSR_UTIL_SNAPSHOT_HH
#define RSR_UTIL_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serial.hh"

namespace rsr
{

/** Pack a four-character component tag, first character lowest byte. */
constexpr std::uint32_t
fourcc(char a, char b, char c, char d)
{
    return std::uint32_t{static_cast<std::uint8_t>(a)} |
           std::uint32_t{static_cast<std::uint8_t>(b)} << 8 |
           std::uint32_t{static_cast<std::uint8_t>(c)} << 16 |
           std::uint32_t{static_cast<std::uint8_t>(d)} << 24;
}

/** Render a fourcc tag for error messages ("CACH"). */
std::string fourccName(std::uint32_t tag);

/**
 * Frame-writing serializer. Component code brackets its payload with
 * begin(tag, version) / end(). Frames are written in place: begin() emits
 * the header with a length placeholder, primitives go straight into the
 * sink, and end() back-patches the innermost frame's payload length.
 */
class Serializer
{
  public:
    explicit Serializer(ByteSink &out) : out(out) {}

    /** Open a component frame. */
    void begin(std::uint32_t tag, std::uint32_t version);

    /** Close the innermost frame, filling in its payload length. */
    void end();

    void putU8(std::uint8_t v) { out.putU8(v); }
    void putU32(std::uint32_t v) { out.putU32(v); }
    void putU64(std::uint64_t v) { out.putU64(v); }
    void putBytes(const void *data, std::size_t n) { out.putBytes(data, n); }

  private:
    ByteSink &out;
    /** Sink offset of each open frame's length word, innermost last. */
    std::vector<std::size_t> lengthAt;
};

/**
 * Frame-validating deserializer. begin(tag, version) checks the frame
 * header — truncation, tag identity, version, payload length — and throws
 * CorruptInputError on any mismatch; it is the one frame-version check.
 * end() verifies the payload was consumed exactly.
 */
class Deserializer
{
  public:
    explicit Deserializer(ByteSource &in) : in(in) {}

    /**
     * Validate and open the frame of component @p tag at the cursor,
     * which must be at @p version: the only version this build reads.
     */
    void begin(std::uint32_t tag, std::uint32_t version);

    /** Close the innermost frame, checking exact payload consumption. */
    void end();

    std::uint8_t getU8() { return in.getU8(); }
    std::uint32_t getU32() { return in.getU32(); }
    std::uint64_t getU64() { return in.getU64(); }
    void getBytes(void *out, std::size_t n) { in.getBytes(out, n); }

    /** Unread payload bytes of the innermost open frame (0 past its end). */
    std::size_t
    frameRemaining() const
    {
        const Frame &f = frames.back();
        return f.endPos > in.tell() ? f.endPos - in.tell() : 0;
    }

  private:
    struct Frame
    {
        std::uint32_t tag;
        std::size_t endPos;
    };

    ByteSource &in;
    std::vector<Frame> frames;
};

/** Components whose microarchitectural state can be checkpointed. */
class Snapshotable
{
  public:
    virtual ~Snapshotable() = default;

    /** Write this component's state as one framed snapshot. */
    virtual void snapshot(Serializer &out) const = 0;

    /**
     * Restore state written by snapshot(). Throws CorruptInputError on a
     * damaged frame or a snapshot that does not match this component's
     * configured geometry.
     */
    virtual void restore(Deserializer &in) = 0;
};

/** Snapshot @p obj into a fresh byte buffer. */
std::vector<std::uint8_t> snapshotToBytes(const Snapshotable &obj);

/**
 * Restore @p obj from a buffer produced by snapshotToBytes(). Throws
 * CorruptInputError if the buffer is damaged or has trailing bytes.
 */
void restoreFromBytes(Snapshotable &obj,
                      const std::vector<std::uint8_t> &bytes);

} // namespace rsr

#endif // RSR_UTIL_SNAPSHOT_HH
