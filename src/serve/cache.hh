/**
 * @file
 * The serve daemon's content-addressed caches. Two layers, both keyed
 * by FNV-1a-64 hashes and bounded by a byte budget with LRU
 * eviction:
 *
 *   ResultCache — requestHash -> final result JSON. A repeated request
 *     is answered without touching the simulator at all.
 *
 *   StoreCache — capture key (LivePointStore::configHash) ->
 *     live-point store. A request whose machine differs from a cached
 *     capture only in `core.*` timing fields skips the expensive
 *     functional front half and replays the warmed state under its own
 *     machine (replayStoreParallel), the capture-once/replay-many split
 *     served over a socket.
 *
 * Both caches are thread-safe; workers hit them concurrently.
 */

#ifndef RSR_SERVE_CACHE_HH
#define RSR_SERVE_CACHE_HH

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/livepoint_store.hh"

namespace rsr::serve
{

/**
 * A byte-budgeted LRU map from content hash to a value. Insertion of a
 * value larger than the whole budget is silently skipped (the daemon
 * still answers; it just cannot cache), and eviction walks from the
 * least recently used end until the new value fits.
 */
template <typename Value>
class LruCache
{
  public:
    explicit LruCache(std::uint64_t budget_bytes)
        : budget_(budget_bytes)
    {}

    /** Look up @p key, refreshing its recency. Null if absent. */
    std::shared_ptr<const Value>
    get(std::uint64_t key)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = index_.find(key);
        if (it == index_.end())
            return nullptr;
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->value;
    }

    /** Insert @p value under @p key (@p bytes is its charged size). */
    void
    put(std::uint64_t key, std::shared_ptr<const Value> value,
        std::uint64_t bytes)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (bytes > budget_)
            return;
        const auto it = index_.find(key);
        if (it != index_.end()) {
            bytes_ -= it->second->bytes;
            lru_.erase(it->second);
            index_.erase(it);
        }
        while (bytes_ + bytes > budget_ && !lru_.empty()) {
            bytes_ -= lru_.back().bytes;
            index_.erase(lru_.back().key);
            lru_.pop_back();
        }
        lru_.push_front(Entry{key, std::move(value), bytes});
        index_[key] = lru_.begin();
        bytes_ += bytes;
    }

    std::uint64_t
    bytes() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return bytes_;
    }

    std::uint64_t
    entries() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return index_.size();
    }

  private:
    struct Entry
    {
        std::uint64_t key;
        std::shared_ptr<const Value> value;
        std::uint64_t bytes;
    };

    mutable std::mutex mutex_;
    std::uint64_t budget_;
    std::uint64_t bytes_ = 0;
    std::list<Entry> lru_; ///< front = most recently used
    std::map<std::uint64_t, typename std::list<Entry>::iterator> index_;
};

using ResultCache = LruCache<std::string>;
using StoreCache = LruCache<core::LivePointStore>;

} // namespace rsr::serve

#endif // RSR_SERVE_CACHE_HH
