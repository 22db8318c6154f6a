#include "cache.hh"

#include "util/error.hh"

namespace rsr::cache
{

namespace
{
constexpr std::uint32_t cacheSnapshotTag = fourcc('C', 'A', 'C', 'H');
constexpr std::uint32_t cacheSnapshotVersion = 1;
} // namespace

Cache::Cache(const CacheParams &params) : params_(params)
{
    rsr_assert(isPowerOf2(params_.lineBytes), params_.name,
               ": line size must be a power of two");
    rsr_assert(params_.assoc >= 1 && params_.assoc <= maxAssoc,
               "associativity must be in [1, ", maxAssoc, "]");
    rsr_assert(params_.sizeBytes % (params_.lineBytes * params_.assoc) == 0,
               params_.name, ": size not divisible by assoc * line");
    numSets_ = static_cast<unsigned>(params_.sizeBytes /
                                     (params_.lineBytes * params_.assoc));
    rsr_assert(isPowerOf2(numSets_), params_.name,
               ": set count must be a power of two");
    assoc_ = params_.assoc;
    lineShift = floorLog2(params_.lineBytes);
    setShift = floorLog2(numSets_);

    const std::size_t blocks = std::size_t{numSets_} * assoc_;
    tags_.assign(blocks, 0);
    flags_.assign(blocks, 0);
    order_.resize(blocks);
    reconCount_.assign(numSets_, 0);
    for (std::uint64_t s = 0; s < numSets_; ++s)
        for (unsigned w = 0; w < assoc_; ++w)
            order_[s * assoc_ + w] = static_cast<std::uint8_t>(w);
}

int
Cache::findWay(std::uint64_t set, std::uint64_t tag) const
{
    const std::uint64_t *tags = tags_.data() + set * assoc_;
    const std::uint8_t *flags = flags_.data() + set * assoc_;
    for (unsigned w = 0; w < assoc_; ++w)
        if ((flags[w] & flagValid) && tags[w] == tag)
            return static_cast<int>(w);
    return -1;
}

void
Cache::placeAt(std::uint8_t *ord, unsigned assoc, std::uint8_t way,
               unsigned pos)
{
    unsigned cur = 0;
    while (cur < assoc && ord[cur] != way)
        ++cur;
    rsr_assert(cur < assoc, "way missing from recency order");
    for (; cur > pos; --cur)
        ord[cur] = ord[cur - 1];
    for (; cur < pos; ++cur)
        ord[cur] = ord[cur + 1];
    ord[pos] = way;
}

bool
Cache::probe(std::uint64_t addr) const
{
    return findWay(setOf(addr), tagOf(addr)) >= 0;
}

bool
Cache::setFull(std::uint64_t addr) const
{
    const std::uint8_t *flags = flags_.data() + setOf(addr) * assoc_;
    for (unsigned w = 0; w < assoc_; ++w)
        if (!(flags[w] & flagValid))
            return false;
    return true;
}

int
Cache::recencyOf(std::uint64_t addr) const
{
    const std::uint64_t set = setOf(addr);
    const int way = findWay(set, tagOf(addr));
    if (way < 0)
        return -1;
    const std::uint8_t *ord = order_.data() + set * assoc_;
    unsigned pos = 0;
    while (ord[pos] != static_cast<std::uint8_t>(way))
        ++pos;
    return static_cast<int>(pos);
}

void
Cache::invalidateAll()
{
    std::fill(tags_.begin(), tags_.end(), 0);
    std::fill(flags_.begin(), flags_.end(), 0);
    std::fill(reconCount_.begin(), reconCount_.end(), 0);
    for (std::uint64_t s = 0; s < numSets_; ++s)
        for (unsigned w = 0; w < assoc_; ++w)
            order_[s * assoc_ + w] = static_cast<std::uint8_t>(w);
}

void
Cache::beginReconstruction()
{
    for (auto &f : flags_)
        f &= static_cast<std::uint8_t>(~flagRecon);
    std::fill(reconCount_.begin(), reconCount_.end(), 0);
}

bool
Cache::reconstructRef(std::uint64_t addr)
{
    const std::uint64_t set = setOf(addr);
    if (reconCount_[set] >= assoc_) {
        // Fully reconstructed set: everything older is ineffectual.
        ++stats_.reconIgnored;
        return false;
    }

    std::uint64_t *tags = tags_.data() + set * assoc_;
    std::uint8_t *flags = flags_.data() + set * assoc_;
    std::uint8_t *ord = order_.data() + set * assoc_;
    const std::uint64_t tag = tagOf(addr);
    int way = findWay(set, tag);
    if (way >= 0 && (flags[way] & flagRecon)) {
        // This block's final state was already determined by a younger
        // reference; the older one cannot affect it.
        ++stats_.reconIgnored;
        return false;
    }

    if (way < 0) {
        // Absent: install into the least recently used *stale* block.
        // Stale blocks occupy order[reconCount..assoc-1] in stale-recency
        // order, so the overall LRU slot is the stale LRU.
        way = ord[assoc_ - 1];
        tags[way] = tag;
        // Reconstruction cannot know dirtiness; treat as clean. (The
        // write-through L1s are never dirty; for the write-back L2 this
        // only suppresses a warm-state writeback, not correctness of the
        // sampled estimate.)
        flags[way] = flagValid;
        ++stats_.fills;
    }

    flags[way] |= flagRecon;
    placeAt(ord, assoc_, static_cast<std::uint8_t>(way), reconCount_[set]);
    ++reconCount_[set];
    ++stats_.reconApplied;
    return true;
}

bool
Cache::isReconstructed(std::uint64_t addr) const
{
    const std::uint64_t set = setOf(addr);
    const int way = findWay(set, tagOf(addr));
    return way >= 0 && (flags_[set * assoc_ + way] & flagRecon);
}

void
Cache::snapshot(Serializer &out) const
{
    out.begin(cacheSnapshotTag, cacheSnapshotVersion);
    out.putU32(numSets_);
    out.putU32(assoc_);
    for (std::uint64_t s = 0; s < numSets_; ++s) {
        for (unsigned w = 0; w < assoc_; ++w) {
            out.putU64(tags_[s * assoc_ + w]);
            out.putU8(flags_[s * assoc_ + w]);
        }
        for (unsigned w = 0; w < assoc_; ++w)
            out.putU8(order_[s * assoc_ + w]);
        out.putU32(reconCount_[s]);
    }
    out.end();
}

void
Cache::restore(Deserializer &in)
{
    in.begin(cacheSnapshotTag, cacheSnapshotVersion);
    const std::uint32_t sets_in = in.getU32();
    const std::uint32_t assoc_in = in.getU32();
    if (sets_in != numSets_ || assoc_in != assoc_)
        rsr_throw_corrupt(params_.name, ": snapshot geometry ", sets_in,
                          " sets x ", assoc_in, " ways does not match "
                          "configured ", numSets_, " sets x ",
                          assoc_, " ways");
    for (std::uint64_t s = 0; s < numSets_; ++s) {
        for (unsigned w = 0; w < assoc_; ++w) {
            tags_[s * assoc_ + w] = in.getU64();
            flags_[s * assoc_ + w] = static_cast<std::uint8_t>(
                in.getU8() & (flagValid | flagDirty | flagRecon));
        }
        for (unsigned w = 0; w < assoc_; ++w)
            order_[s * assoc_ + w] = in.getU8();
        reconCount_[s] = in.getU32();
    }
    in.end();
}

} // namespace rsr::cache
