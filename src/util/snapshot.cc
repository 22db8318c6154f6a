#include "snapshot.hh"

#include "error.hh"
#include "logging.hh"

namespace rsr
{

std::string
fourccName(std::uint32_t tag)
{
    std::string out;
    for (int i = 0; i < 4; ++i) {
        const char c = static_cast<char>(tag >> (8 * i));
        out += (c >= 0x20 && c < 0x7f) ? c : '?';
    }
    return out;
}

void
Serializer::begin(std::uint32_t tag, std::uint32_t version)
{
    out.putU32(tag);
    out.putU32(version);
    lengthAt.push_back(out.size());
    out.putU64(0); // payload length, back-patched by end()
}

void
Serializer::end()
{
    rsr_assert(!lengthAt.empty(), "Serializer::end() without begin()");
    const std::size_t at = lengthAt.back();
    lengthAt.pop_back();
    out.patchU64(at, out.size() - (at + 8));
}

void
Deserializer::begin(std::uint32_t tag, std::uint32_t version)
{
    constexpr std::size_t headerBytes = 4 + 4 + 8; // tag, version, length
    if (in.remaining() < headerBytes)
        rsr_throw_corrupt("snapshot truncated: component '",
                          fourccName(tag), "' needs a ", headerBytes,
                          "-byte header, have ", in.remaining(), " bytes");
    const std::uint32_t found = in.getU32();
    if (found != tag)
        rsr_throw_corrupt("snapshot component mismatch: expected '",
                          fourccName(tag), "', found '", fourccName(found),
                          "'");
    const std::uint32_t found_version = in.getU32();
    if (found_version != version)
        rsr_throw_corrupt("snapshot component '", fourccName(tag),
                          "' version skew: found v", found_version,
                          ", this build reads v", version);
    const std::uint64_t len = in.getU64();
    if (len > in.remaining())
        rsr_throw_corrupt("snapshot component '", fourccName(tag),
                          "' payload length ", len, " exceeds remaining ",
                          in.remaining(), " bytes (truncated)");
    frames.push_back(Frame{tag, in.tell() + static_cast<std::size_t>(len)});
}

void
Deserializer::end()
{
    rsr_assert(!frames.empty(), "Deserializer::end() without begin()");
    const Frame f = frames.back();
    frames.pop_back();
    if (in.tell() != f.endPos)
        rsr_throw_corrupt("snapshot component '", fourccName(f.tag),
                          "' payload not consumed exactly (cursor at ",
                          in.tell(), ", frame ends at ", f.endPos, ")");
}

std::vector<std::uint8_t>
snapshotToBytes(const Snapshotable &obj)
{
    ByteSink sink;
    Serializer s(sink);
    obj.snapshot(s);
    return sink.take();
}

void
restoreFromBytes(Snapshotable &obj, const std::vector<std::uint8_t> &bytes)
{
    ByteSource src(bytes);
    Deserializer d(src);
    obj.restore(d);
    if (!src.exhausted())
        rsr_throw_corrupt("trailing bytes after snapshot (",
                          src.remaining(), " left)");
}

} // namespace rsr
