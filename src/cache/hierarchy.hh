/**
 * @file
 * Two-level memory hierarchy with bus models, implementing the paper's
 * Section-4 configuration: 32 KB 4-way WTNA L1D, 64 KB 4-way WTNA L1I,
 * 1 MB 8-way WBWA unified L2, a shared 16 B / 1 GHz L1-L2 bus, a 32 B /
 * 2 GHz L2-memory bus, all against a 2 GHz core.
 *
 * Two access paths share one state machine:
 *   - timed*()    — hot-phase accesses: update state and model latency,
 *                   arbitration, contention, and transfer delay;
 *   - warmAccess() — functional warming (SMARTS / fixed-period): identical
 *                   state updates, no timing, counted as warm work units.
 */

#ifndef RSR_CACHE_HIERARCHY_HH
#define RSR_CACHE_HIERARCHY_HH

#include <cstdint>

#include "cache/bus.hh"
#include "cache/cache.hh"

namespace rsr::cache
{

/** Full hierarchy configuration. */
struct HierarchyParams
{
    CacheParams il1;
    CacheParams dl1;
    CacheParams l2;
    BusParams l1Bus;
    BusParams l2Bus;
    /** Main-memory access latency in CPU cycles. */
    std::uint64_t memLatency = 200;

    /** The paper's Section-4 memory system. */
    static HierarchyParams paperDefault();
};

/** Two-level hierarchy. */
class MemoryHierarchy : public Snapshotable
{
  public:
    explicit MemoryHierarchy(const HierarchyParams &params);

    Cache &il1() { return il1_; }
    Cache &dl1() { return dl1_; }
    Cache &l2() { return l2_; }
    const Cache &il1() const { return il1_; }
    const Cache &dl1() const { return dl1_; }
    const Cache &l2() const { return l2_; }
    Bus &l1Bus() { return l1Bus_; }
    Bus &l2Bus() { return l2Bus_; }
    const Bus &l1Bus() const { return l1Bus_; }
    const Bus &l2Bus() const { return l2Bus_; }
    const HierarchyParams &params() const { return params_; }

    /** Timed data load issued at @p now; returns data-ready cycle. */
    std::uint64_t timedLoad(std::uint64_t now, std::uint64_t addr);

    /**
     * Timed data store issued at @p now; returns the write-through
     * completion cycle. The core treats stores as fire-and-forget, but the
     * bus occupancy they create delays subsequent misses.
     */
    std::uint64_t timedStore(std::uint64_t now, std::uint64_t addr);

    /** Timed instruction fetch of the block at @p addr. */
    std::uint64_t timedFetch(std::uint64_t now, std::uint64_t addr);

    /**
     * Functional warm access (the SMARTS full-functional warm-up path):
     * apply the same state transitions as a timed access, with no timing.
     * Inline: this runs once per skipped memory operation under
     * functional warming, so it rides the Cache::access fast path.
     */
    void
    warmAccess(std::uint64_t addr, bool is_store, bool is_instr)
    {
        Cache &l1 = is_instr ? il1_ : dl1_;
        const AccessOutcome o1 = l1.access(addr, is_store);
        ++warmUpdates_;
        if (is_store || !o1.hit) {
            // Write-through stores and L1 misses reach the L2.
            l2_.access(addr, is_store);
            ++warmUpdates_;
        }
    }

    /** Component state updates applied by warmAccess() so far. */
    std::uint64_t warmUpdates() const { return warmUpdates_; }

    /** Invalidate all caches and release all buses. */
    void reset();

    /**
     * Clear everything snapshot() leaves out — bus occupancy and bus,
     * cache and warm-update statistics — to what a restore into a fresh
     * hierarchy holds. Cache contents are untouched.
     */
    void clearTransientState();

    /**
     * Snapshot all three caches as one framed 'HIER' component. Bus
     * occupancy and the warm-update counter are transient (buses are
     * reset at every cluster boundary) and are not captured.
     */
    void snapshot(Serializer &out) const override;

    /** Restore a snapshot; throws CorruptInputError on any mismatch. */
    void restore(Deserializer &in) override;

  private:
    /** Handle an L1 load/fetch miss: fetch the line through L2. */
    std::uint64_t missToL2(std::uint64_t t, std::uint64_t addr);

    // rsrlint: snap-excluded(construction-time config, geometry lives in each Cache frame)
    HierarchyParams params_;
    Cache il1_;
    Cache dl1_;
    Cache l2_;
    // rsrlint: snap-excluded(timing-phase state, restarts at each measurement phase)
    Bus l1Bus_;
    // rsrlint: snap-excluded(timing-phase state, restarts at each measurement phase)
    Bus l2Bus_;
    // rsrlint: snap-excluded(warm-up diagnostics counter, cleared per phase)
    std::uint64_t warmUpdates_ = 0;
};

} // namespace rsr::cache

#endif // RSR_CACHE_HIERARCHY_HH
