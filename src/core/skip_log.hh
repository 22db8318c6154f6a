/**
 * @file
 * The skip-region log (paper Section 3). During cold simulation between
 * clusters, the Reverse State Reconstruction method records the
 * information needed to later rebuild cache and branch-predictor state:
 * memory references (with instruction/data and load/store type) and
 * branch records (PC, target, kind, outcome). The log is kept only for
 * the current skip region — it is discarded once the following cluster
 * completes, bounding the storage traded for speed.
 *
 * rsrlint: hot — this header sits on the functional-simulation inner
 * loop; keep stream flushes and exceptional paths out of it.
 */

#ifndef RSR_CORE_SKIP_LOG_HH
#define RSR_CORE_SKIP_LOG_HH

#include <cstdint>
#include <vector>

#include "isa/opcode.hh"

namespace rsr::core
{

/**
 * One logged memory reference, packed to 16 bytes: the reference address,
 * plus the logging PC and the entry/reference type bits (paper Sec. 3.1:
 * current PC, address, and two booleans for instruction-vs-data and
 * load-vs-store) folded into one word. Logging touches this record for
 * every skipped memory operation, so its footprint is the storage half of
 * the algorithm's storage-for-speed tradeoff.
 */
struct MemRecord
{
    MemRecord() = default;

    MemRecord(std::uint64_t pc, std::uint64_t addr, bool is_instr,
              bool is_store)
        : addr(addr), meta((pc << 2) | (is_instr ? 1u : 0u) |
                           (is_store ? 2u : 0u))
    {}

    std::uint64_t addr = 0;
    std::uint64_t meta = 0;

    /** PC of the logging instruction. */
    std::uint64_t pc() const { return meta >> 2; }
    bool isInstr() const { return meta & 1; }
    bool isStore() const { return meta & 2; }
};

static_assert(sizeof(MemRecord) == 16, "log record should stay compact");

/**
 * Flat structure-of-arrays ring of logged memory references.
 *
 * The append path (one call per skipped memory operation — the hottest
 * write in the whole skip loop) pushes onto two parallel u64 vectors
 * instead of constructing a record struct, and the reverse scan reads the
 * address column sequentially without dragging the meta words through the
 * cache when it only needs set indices. clear() keeps the vectors'
 * capacity, so after the first skip region the ring appends without
 * allocating. The 16-bytes-per-entry footprint of MemRecord is preserved
 * exactly (addr word + packed meta word).
 */
class MemLog
{
  public:
    void
    append(std::uint64_t pc, std::uint64_t addr, bool is_instr,
           bool is_store)
    {
        addr_.push_back(addr);
        meta_.push_back((pc << 2) | (is_instr ? 1u : 0u) |
                        (is_store ? 2u : 0u));
    }

    std::size_t size() const { return addr_.size(); }
    bool empty() const { return addr_.empty(); }

    void
    reserve(std::size_t n)
    {
        addr_.reserve(n);
        meta_.reserve(n);
    }

    /** Drop all entries but keep the ring's capacity for the next region. */
    void
    clear()
    {
        addr_.clear();
        meta_.clear();
    }

    std::uint64_t addr(std::size_t i) const { return addr_[i]; }
    std::uint64_t pc(std::size_t i) const { return meta_[i] >> 2; }
    bool isInstr(std::size_t i) const { return meta_[i] & 1; }
    bool isStore(std::size_t i) const { return meta_[i] & 2; }

    /** Entry @p i in record form (for tests and tools). */
    MemRecord
    record(std::size_t i) const
    {
        MemRecord r;
        r.addr = addr_[i];
        r.meta = meta_[i];
        return r;
    }

    /** Buffered bytes; matches the AoS MemRecord footprint. */
    std::uint64_t
    bytes() const
    {
        return size() * (sizeof(std::uint64_t) * 2);
    }

  private:
    std::vector<std::uint64_t> addr_;
    std::vector<std::uint64_t> meta_;
};

/** One logged control transfer. */
struct BranchRecord
{
    std::uint64_t pc = 0;
    /** Actual next PC (the taken target when taken). */
    std::uint64_t target = 0;
    isa::BranchKind kind = isa::BranchKind::NotBranch;
    bool taken = false;
};

/** Per-skip-region reconstruction log. */
class SkipLog
{
  public:
    MemLog mem;
    std::vector<BranchRecord> branches;
    /** Predictor GHR value when the skip region began. */
    std::uint32_t ghrAtStart = 0;

    void
    clear()
    {
        mem.clear();
        branches.clear();
        ghrAtStart = 0;
    }

    /** Approximate buffered bytes (the storage half of the tradeoff). */
    std::uint64_t
    bytes() const
    {
        return mem.bytes() + branches.size() * sizeof(BranchRecord);
    }

    std::uint64_t records() const { return mem.size() + branches.size(); }
};

/**
 * A position in a SkipLog: the first memory and branch records of one
 * instruction. A policy sweep logs each region once and hands every
 * consumer the cursor at the first instruction it observes.
 */
struct LogCursor
{
    std::size_t mem = 0;
    std::size_t branch = 0;
};

} // namespace rsr::core

#endif // RSR_CORE_SKIP_LOG_HH
