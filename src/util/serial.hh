/**
 * @file
 * Minimal binary serialization helpers used by the checkpoint/live-point
 * machinery: a growable little-endian byte sink and a bounds-checked
 * source. Fixed-width primitives only — no endianness surprises, no
 * implicit padding.
 */

#ifndef RSR_UTIL_SERIAL_HH
#define RSR_UTIL_SERIAL_HH

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "logging.hh"

namespace rsr
{

/** Append-only byte buffer writer. */
class ByteSink
{
  public:
    void
    putU8(std::uint8_t v)
    {
        buf.push_back(v);
    }

    void
    putU32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    putU64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    putBytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf.insert(buf.end(), p, p + n);
    }

    /** Overwrite the 8 bytes at @p pos, already written, with @p v. */
    void
    patchU64(std::size_t pos, std::uint64_t v)
    {
        rsr_assert(pos + 8 <= buf.size(), "patch past end of sink (",
                   pos, " of ", buf.size(), ")");
        for (int i = 0; i < 8; ++i)
            buf[pos + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }

    const std::vector<std::uint8_t> &bytes() const { return buf; }
    std::vector<std::uint8_t> take() { return std::move(buf); }
    std::size_t size() const { return buf.size(); }

  private:
    std::vector<std::uint8_t> buf;
};

/** Bounds-checked reader over a byte buffer. */
class ByteSource
{
  public:
    explicit ByteSource(std::span<const std::uint8_t> buf)
        : data(buf.data()), size_(buf.size())
    {}

    ByteSource(const std::uint8_t *data, std::size_t size)
        : data(data), size_(size)
    {}

    std::uint8_t
    getU8()
    {
        need(1);
        return data[pos++];
    }

    std::uint32_t
    getU32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= std::uint32_t{data[pos++]} << (8 * i);
        return v;
    }

    std::uint64_t
    getU64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= std::uint64_t{data[pos++]} << (8 * i);
        return v;
    }

    void
    getBytes(void *out, std::size_t n)
    {
        need(n);
        std::memcpy(out, data + pos, n);
        pos += n;
    }

    /** Advance past @p n bytes without copying them. */
    void
    skip(std::size_t n)
    {
        need(n);
        pos += n;
    }

    /** All bytes consumed? */
    bool exhausted() const { return pos == size_; }
    std::size_t remaining() const { return size_ - pos; }
    /** Current read offset from the start of the buffer. */
    std::size_t tell() const { return pos; }
    /** Pointer to the next unread byte (for checksumming ahead). */
    const std::uint8_t *cursor() const { return data + pos; }

  private:
    void
    need(std::size_t n) const
    {
        rsr_assert(pos + n <= size_, "serialized buffer underrun (need ",
                   n, " at ", pos, " of ", size_, ")");
    }

    const std::uint8_t *data;
    std::size_t size_;
    std::size_t pos = 0;
};

/** ZigZag-encode a signed delta so small magnitudes stay small. */
constexpr std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

/** Inverse of zigzagEncode. */
constexpr std::int64_t
zigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** LEB128 variable-length encode into a sink. */
inline void
putVarint(ByteSink &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.putU8(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.putU8(static_cast<std::uint8_t>(v));
}

/** LEB128 variable-length decode from a source. */
inline std::uint64_t
getVarint(ByteSource &in)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    while (true) {
        const std::uint8_t b = in.getU8();
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            return v;
        shift += 7;
        rsr_assert(shift < 64, "varint too long");
    }
}

} // namespace rsr

#endif // RSR_UTIL_SERIAL_HH
