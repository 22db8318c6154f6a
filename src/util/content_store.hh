/**
 * @file
 * Content-addressed blob store underlying the live-point store. Blobs are
 * keyed by their FNV-1a-64 content hash and deduplicated on write: adding
 * the same bytes twice stores them once and returns the same hash. The
 * serialized container carries an opaque index (the owner's metadata —
 * the store does not interpret it) followed by the unique blobs:
 *
 *   magic 'RSRS' (u32) | version (u32) | index length (u64) |
 *   index FNV-1a-64 (u64) | index bytes |
 *   blob count (u64) | { hash (u64) | length (u64) | bytes }*
 *
 * The reader validates the whole container up front — magic, version,
 * index checksum, per-blob hash-of-content, exact bounds — and throws
 * CorruptInputError on any damage: truncation, bit flips, duplicate or
 * trailing entries. A blob whose stored bytes no longer hash to its key
 * can never be returned; silent reuse of damaged state is impossible.
 */

#ifndef RSR_UTIL_CONTENT_STORE_HH
#define RSR_UTIL_CONTENT_STORE_HH

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace rsr
{

/** On-disk container version understood by this build. */
constexpr std::uint32_t contentStoreVersion = 1;

/**
 * Write-side of the store: accumulate deduplicated blobs, then seal the
 * container with finish(). Not thread-safe; producers add from one thread.
 */
class BlobStoreWriter
{
  public:
    /**
     * Add @p bytes, returning their content hash. Identical payloads
     * dedup to one stored copy; a hash collision between different
     * payloads (astronomically unlikely, but checked byte-for-byte)
     * throws InternalError rather than silently aliasing state.
     */
    std::uint64_t add(const std::vector<std::uint8_t> &bytes);

    /** Number of unique blobs stored so far. */
    std::size_t blobCount() const { return blobs_.size(); }

    /** Bytes actually stored (after dedup). */
    std::uint64_t storedBytes() const { return storedBytes_; }

    /** Bytes offered via add() (before dedup). */
    std::uint64_t addedBytes() const { return addedBytes_; }

    /** Number of add() calls. */
    std::uint64_t addedCount() const { return addedCount_; }

    /**
     * Seal the container around @p index (the owner's opaque metadata)
     * and return the complete serialized file.
     */
    std::vector<std::uint8_t>
    finish(const std::vector<std::uint8_t> &index) const;

  private:
    // std::map keeps serialization order deterministic (sorted by hash);
    // iterating an unordered container here would trip det-unordered-iter
    // and make the container bytes depend on hash-table layout.
    std::map<std::uint64_t, std::vector<std::uint8_t>> blobs_;
    std::uint64_t storedBytes_ = 0;
    std::uint64_t addedBytes_ = 0;
    std::uint64_t addedCount_ = 0;
};

/**
 * Read-side of the store. The constructor validates the entire container
 * (header, index checksum, every blob's content hash, exact bounds) and
 * throws CorruptInputError on any damage, so lookups after construction
 * are infallible except for unknown hashes. Lookups are const and
 * thread-safe: replay workers decode blobs concurrently. Blobs are views
 * into the one container buffer, so an open store holds its bytes once.
 */
class BlobStoreReader
{
  public:
    /** Validate and open a container produced by BlobStoreWriter. */
    explicit BlobStoreReader(std::vector<std::uint8_t> file);

    /** The owner's opaque index bytes. */
    const std::vector<std::uint8_t> &index() const { return index_; }

    /**
     * Blob payload for @p hash, a view into fileBytes() valid for the
     * reader's lifetime; CorruptInputError if absent.
     */
    std::span<const std::uint8_t> blob(std::uint64_t hash) const;

    std::size_t blobCount() const { return blobs_.size(); }

    /** Bytes of unique blob payload in the container. */
    std::uint64_t storedBytes() const { return storedBytes_; }

    /** FNV-1a-64 over the whole serialized container. */
    std::uint64_t fileHash() const { return fileHash_; }

    /** The complete serialized container (for re-saving). */
    const std::vector<std::uint8_t> &fileBytes() const { return file_; }

  private:
    /** Where a blob's payload lies in file_. */
    struct Extent
    {
        std::size_t offset;
        std::size_t size;
    };

    std::vector<std::uint8_t> file_;
    std::vector<std::uint8_t> index_;
    std::map<std::uint64_t, Extent> blobs_;
    std::uint64_t storedBytes_ = 0;
    std::uint64_t fileHash_ = 0;
};

} // namespace rsr

#endif // RSR_UTIL_CONTENT_STORE_HH
