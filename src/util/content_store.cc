#include "content_store.hh"

#include "checksum.hh"
#include "error.hh"
#include "fault.hh"
#include "serial.hh"
#include "snapshot.hh"

namespace rsr
{
namespace
{

constexpr std::uint32_t storeMagic = fourcc('R', 'S', 'R', 'S');

} // namespace

std::uint64_t
BlobStoreWriter::add(const std::vector<std::uint8_t> &bytes)
{
    const std::uint64_t hash = fnv64(bytes.data(), bytes.size());
    const auto it = blobs_.find(hash);
    if (it != blobs_.end()) {
        if (it->second != bytes)
            rsr_throw_internal("content hash collision on ",
                              checksumHex(hash), " (", bytes.size(),
                              " vs ", it->second.size(), " bytes)");
        return hash;
    }
    storedBytes_ += bytes.size();
    blobs_.emplace(hash, bytes);
    return hash;
}

std::vector<std::uint8_t>
BlobStoreWriter::finish(const std::vector<std::uint8_t> &index) const
{
    ByteSink out;
    out.putU32(storeMagic);
    out.putU32(contentStoreVersion);
    out.putU64(index.size());
    out.putU64(fnv64(index.data(), index.size()));
    out.putBytes(index.data(), index.size());
    out.putU64(blobs_.size());
    for (const auto &[hash, bytes] : blobs_) {
        out.putU64(hash);
        out.putU64(bytes.size());
        out.putBytes(bytes.data(), bytes.size());
    }
    return out.take();
}

BlobStoreReader::BlobStoreReader(std::vector<std::uint8_t> file)
    : file_(std::move(file))
{
    fileHash_ = fnv64(file_.data(), file_.size());

    // Validate the fixed header before trusting any length word.
    constexpr std::size_t header_bytes = 4 + 4 + 8 + 8;
    if (file_.size() < header_bytes)
        rsr_throw_corrupt("blob store truncated: ", file_.size(),
                          " bytes, header needs ", header_bytes);
    ByteSource in(file_);
    const std::uint32_t magic = in.getU32();
    if (magic != storeMagic)
        rsr_throw_corrupt("blob store bad magic ", fourccName(magic),
                          ", expected ", fourccName(storeMagic));
    // The version word is validated but deliberately not checksummed at
    // the container level, so a future format bump reads as version
    // skew, not random corruption.
    const std::uint32_t version = in.getU32();
    if (version != contentStoreVersion)
        rsr_throw_corrupt("blob store version skew: file is v", version,
                          ", this build reads v", contentStoreVersion);

    const std::uint64_t index_len = in.getU64();
    const std::uint64_t index_fnv = in.getU64();
    if (index_len > in.remaining())
        rsr_throw_corrupt("blob store truncated: index claims ",
                          index_len, " bytes, ", in.remaining(),
                          " remain");
    FaultInjector::global().checkAlloc("content_store:index", index_len);
    index_.assign(in.cursor(), in.cursor() + index_len);
    in.skip(index_len);
    const std::uint64_t got_fnv = fnv64(index_.data(), index_.size());
    if (got_fnv != index_fnv)
        rsr_throw_corrupt("blob store index checksum mismatch: stored ",
                          checksumHex(index_fnv), ", computed ",
                          checksumHex(got_fnv));

    if (in.remaining() < 8)
        rsr_throw_corrupt("blob store truncated before blob table");
    const std::uint64_t count = in.getU64();
    for (std::uint64_t i = 0; i < count; ++i) {
        if (in.remaining() < 16)
            rsr_throw_corrupt("blob store truncated at blob ", i, " of ",
                              count);
        const std::uint64_t hash = in.getU64();
        const std::uint64_t len = in.getU64();
        if (len > in.remaining())
            rsr_throw_corrupt("blob store truncated: blob ", i,
                              " claims ", len, " bytes, ",
                              in.remaining(), " remain");
        const Extent extent{in.tell(), static_cast<std::size_t>(len)};
        const std::uint64_t got = fnv64(in.cursor(), extent.size);
        if (got != hash)
            rsr_throw_corrupt("blob ", checksumHex(hash),
                              " content mismatch (hashes to ",
                              checksumHex(got),
                              "): store is bit-flipped");
        in.skip(extent.size);
        storedBytes_ += extent.size;
        if (!blobs_.emplace(hash, extent).second)
            rsr_throw_corrupt("duplicate blob ", checksumHex(hash),
                              " in store");
    }
    if (!in.exhausted())
        rsr_throw_corrupt("blob store has ", in.remaining(),
                          " trailing bytes after ", count, " blobs");
}

std::span<const std::uint8_t>
BlobStoreReader::blob(std::uint64_t hash) const
{
    const auto it = blobs_.find(hash);
    if (it == blobs_.end())
        rsr_throw_corrupt("blob ", checksumHex(hash),
                          " referenced by index but absent from store");
    return {file_.data() + it->second.offset, it->second.size};
}

} // namespace rsr
