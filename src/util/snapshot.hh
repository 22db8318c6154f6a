/**
 * @file
 * Versioned, checksummed component serialization for microarchitectural
 * state. Every snapshotable component writes one self-describing frame:
 *
 *   tag (u32 fourcc) | version (u32) | payload length (u64) |
 *   FNV-1a-64 payload checksum (u64) | payload bytes
 *
 * Frames nest: a machine frame's payload contains the hierarchy frame,
 * which contains the three cache frames, and so on. Restoration validates
 * the tag, payload length, and checksum before any payload byte is
 * consumed, and throws CorruptInputError on any mismatch — truncation, bit
 * flips, a frame of the wrong component type, or trailing garbage. The
 * version word lets a component evolve its payload format without
 * invalidating the wire protocol.
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
 * begin(tag, version) / end(); primitives written in between go into the
 * innermost open frame, and end() emits the completed frame (header,
 * checksum, payload) into the enclosing frame or the root sink.
 */
class Serializer
{
  public:
    explicit Serializer(ByteSink &out) : root(out) {}

    /** Open a component frame. */
    void begin(std::uint32_t tag, std::uint32_t version);

    /** Close the innermost frame and emit it with its header+checksum. */
    void end();

    void putU8(std::uint8_t v) { sink().putU8(v); }
    void putU32(std::uint32_t v) { sink().putU32(v); }
    void putU64(std::uint64_t v) { sink().putU64(v); }
    void putBytes(const void *data, std::size_t n)
    {
        sink().putBytes(data, n);
    }

  private:
    struct Frame
    {
        std::uint32_t tag;
        std::uint32_t version;
        ByteSink payload;
    };

    ByteSink &sink()
    {
        return frames.empty() ? root : frames.back().payload;
    }

    ByteSink &root;
    std::vector<Frame> frames;
};

/**
 * Frame-validating deserializer. begin(tag) checks the frame header —
 * truncation, tag identity, payload length, payload checksum — and throws
 * CorruptInputError on any mismatch, returning the stored version for the
 * component to interpret. end() verifies the payload was consumed exactly.
 */
class Deserializer
{
  public:
    explicit Deserializer(ByteSource &in) : in(in) {}

    /**
     * Validate and open the frame of component @p tag at the cursor.
     * @return the frame's version word.
     */
    std::uint32_t begin(std::uint32_t tag);

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
