/**
 * @file
 * Set-associative cache with true-LRU replacement, write-through/no-write-
 * allocate and write-back/write-allocate policies, and the per-block
 * *reconstructed* bits required by the Reverse State Reconstruction
 * algorithm (paper Section 3.1).
 *
 * Replacement state is an explicit per-set recency ordering (MRU..LRU) so
 * that reverse reconstruction can (a) find the least-recently-used *stale*
 * block and (b) assign ascending LRU values to reconstructed blocks in scan
 * order, exactly as Figure 2 of the paper describes.
 *
 * Storage is flat structure-of-arrays (one tag array, one packed flag-byte
 * array, one recency-byte array, each numSets*assoc long) rather than
 * per-set heap vectors: the tag probe for a 4-way set touches one 32-byte
 * tag span and one 4-byte flag span, and set/tag extraction is pow2
 * mask-and-shift. The access() hot path lives here in the header so both
 * the functional-warming and timing loops inline it.
 */

#ifndef RSR_CACHE_CACHE_HH
#define RSR_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/bitutil.hh"
#include "util/logging.hh"
#include "util/snapshot.hh"

namespace rsr::cache
{

/** Write policy of one cache level. */
enum class WritePolicy : std::uint8_t
{
    WriteThroughNoAllocate, ///< paper's L1 I/D policy
    WriteBackAllocate       ///< paper's L2 policy
};

/** Static geometry and policy of a cache. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 4;
    unsigned lineBytes = 64;
    WritePolicy writePolicy = WritePolicy::WriteThroughNoAllocate;
    /** Access (hit) latency in CPU cycles. */
    unsigned hitLatency = 1;
};

/** Per-access outcome, consumed by the hierarchy for timing/traffic. */
struct AccessOutcome
{
    bool hit = false;
    /** A line was allocated (miss fill). */
    bool allocated = false;
    /** An allocated fill evicted a dirty line (write-back traffic). */
    bool victimDirty = false;
    /** Physical line address of the evicted dirty victim. */
    std::uint64_t victimLineAddr = 0;
};

/** Running statistics. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t reconApplied = 0;  ///< reverse-reconstruction inserts
    std::uint64_t reconIgnored = 0;  ///< redundant/ineffectual refs skipped
};

/** One cache level. */
class Cache : public Snapshotable
{
  public:
    /** Most ways a set holds: the recency order keeps way numbers in a
     *  byte. */
    static constexpr unsigned maxAssoc = 256;

    explicit Cache(const CacheParams &params);

    const CacheParams &params() const { return params_; }
    unsigned numSets() const { return numSets_; }
    const CacheStats &stats() const { return stats_; }
    void clearStats() { stats_ = CacheStats{}; }

    /** Set index of @p addr (for reconstruction-scan bookkeeping). */
    std::uint64_t setIndexOf(std::uint64_t addr) const
    {
        return setOf(addr);
    }

    /**
     * Perform one access, updating tags/LRU/dirty state per the write
     * policy. Used both for timed (hot) accesses and functional (warm)
     * accesses — the state transition is identical; only the caller's
     * timing treatment differs.
     */
    AccessOutcome
    access(std::uint64_t addr, bool is_store)
    {
        AccessOutcome out;
        const std::uint64_t si = setOf(addr);
        const std::uint64_t tag = tagOf(addr);
        const unsigned a = assoc_;
        std::uint64_t *tags = tags_.data() + si * a;
        std::uint8_t *flags = flags_.data() + si * a;
        std::uint8_t *ord = order_.data() + si * a;
        const bool wb = params_.writePolicy == WritePolicy::WriteBackAllocate;

        for (unsigned w = 0; w < a; ++w) {
            if ((flags[w] & flagValid) && tags[w] == tag) {
                ++stats_.hits;
                out.hit = true;
                moveToFront(ord, a, static_cast<std::uint8_t>(w));
                if (is_store && wb)
                    flags[w] |= flagDirty;
                return out;
            }
        }

        ++stats_.misses;
        if (is_store && !wb) {
            // No-write-allocate: the write is forwarded below; no fill.
            return out;
        }

        // Allocate into the LRU way.
        const std::uint8_t victim = ord[a - 1];
        if ((flags[victim] & (flagValid | flagDirty)) ==
            (flagValid | flagDirty)) {
            out.victimDirty = true;
            out.victimLineAddr =
                (tags[victim] << (lineShift + setShift)) | (si << lineShift);
            ++stats_.writebacks;
        }
        tags[victim] = tag;
        flags[victim] = static_cast<std::uint8_t>(
            flagValid | ((is_store && wb) ? flagDirty : 0));
        moveToFront(ord, a, victim);
        ++stats_.fills;
        out.allocated = true;
        return out;
    }

    /** Tag-only presence check with no state change. */
    bool probe(std::uint64_t addr) const;

    /**
     * Are all ways of the set holding @p addr valid? (The "primed set"
     * criterion of sampled cache simulation.)
     */
    bool setFull(std::uint64_t addr) const;

    /**
     * Recency position of @p addr in its set: 0 = MRU, assoc-1 = LRU;
     * -1 if absent. For tests and the Figure-2 example.
     */
    int recencyOf(std::uint64_t addr) const;

    /** Invalidate everything (full machine reset). */
    void invalidateAll();

    // --- Reverse State Reconstruction hooks (paper Sec. 3.1) -------------

    /**
     * Clear all reconstructed bits, leaving contents *stale* (the state at
     * the end of the previous cluster). Called once before consuming the
     * logged skip-region trace.
     */
    void beginReconstruction();

    /**
     * Apply one logged reference, scanned in reverse (newest-first) order.
     *
     * Ignores the reference if its set is fully reconstructed or it maps
     * to an already-reconstructed block; otherwise marks a block
     * reconstructed, installing into the LRU-most stale way on absence.
     * Reconstructed blocks receive ascending LRU ranks in call order
     * (first call for a set = MRU). Stores allocate even under WTNA
     * (paper: avoids searching history for a preceding read).
     *
     * @return true iff a state update was applied (a warm work unit).
     */
    bool reconstructRef(std::uint64_t addr);

    /** Whether the block holding @p addr has its reconstructed bit set. */
    bool isReconstructed(std::uint64_t addr) const;

    /** All ways of set @p set reconstructed (older refs are ineffectual)? */
    bool
    setFullyReconstructed(std::uint64_t set) const
    {
        return reconCount_[set] >= assoc_;
    }

    /**
     * Bulk-account @p n ineffectual logged references without scanning
     * them. Used by the reverse scan's early exit: once every set touched
     * by the remaining (older) log suffix is fully reconstructed, each
     * remaining reference would take the reconIgnored path, so the counter
     * is advanced in one step to stay bit-identical with a full scan.
     */
    void addReconIgnored(std::uint64_t n) { stats_.reconIgnored += n; }

    // --- checkpointing ----------------------------------------------------

    /**
     * Serialize tag/LRU/dirty state (not statistics) as one framed
     * 'CACH' component for live-points and deferred cluster replay.
     */
    void snapshot(Serializer &out) const override;

    /**
     * Restore state captured by snapshot(). Throws CorruptInputError when
     * the frame is damaged or its geometry does not match this cache.
     */
    void restore(Deserializer &in) override;

  private:
    // Packed per-way flag bits; the layout doubles as the snapshot byte
    // encoding ('CACH' v1), so snapshot/restore copy the byte verbatim.
    static constexpr std::uint8_t flagValid = 1;
    static constexpr std::uint8_t flagDirty = 2;
    static constexpr std::uint8_t flagRecon = 4;

    std::uint64_t tagOf(std::uint64_t addr) const
    {
        return addr >> (lineShift + setShift);
    }
    std::uint64_t setOf(std::uint64_t addr) const
    {
        return (addr >> lineShift) & (numSets_ - 1);
    }

    /** First valid way in @p set matching @p tag, else -1. */
    int findWay(std::uint64_t set, std::uint64_t tag) const;

    /** Promote @p way to MRU within one set's recency slice. */
    static void
    moveToFront(std::uint8_t *ord, unsigned assoc, std::uint8_t way)
    {
        unsigned pos = 0;
        while (pos < assoc && ord[pos] != way)
            ++pos;
        rsr_assert(pos < assoc, "way missing from recency order");
        for (; pos > 0; --pos)
            ord[pos] = ord[pos - 1];
        ord[0] = way;
    }

    /** Move @p way to recency position @p pos within one set's slice. */
    static void placeAt(std::uint8_t *ord, unsigned assoc, std::uint8_t way,
                        unsigned pos);

    // rsrlint: snap-excluded(construction-time config, only cross-checked on restore)
    CacheParams params_;
    unsigned numSets_;
    unsigned assoc_;
    // rsrlint: snap-excluded(derived from params_.lineBytes in the ctor)
    unsigned lineShift;
    // rsrlint: snap-excluded(derived from numSets_ in the ctor)
    unsigned setShift;
    /** Per-way tags; way w of set s is slot s*assoc + w. */
    std::vector<std::uint64_t> tags_;
    /** Per-way packed valid/dirty/reconstructed flags, same indexing. */
    std::vector<std::uint8_t> flags_;
    /** Way indices ordered MRU..LRU, one assoc-long slice per set. */
    std::vector<std::uint8_t> order_;
    /** Reconstructed blocks per set (they occupy order[0..n-1]). */
    std::vector<std::uint32_t> reconCount_;
    // rsrlint: snap-excluded(measurement counters, reset per phase rather than replayed)
    CacheStats stats_;
};

} // namespace rsr::cache

#endif // RSR_CACHE_CACHE_HH
