/**
 * @file
 * Sparse, page-backed functional memory. Pages are allocated on first touch
 * and zero-filled, so generated programs can address multi-gigabyte virtual
 * footprints while the host only pays for the pages actually used.
 */

#ifndef RSR_MEM_MEMORY_HH
#define RSR_MEM_MEMORY_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>

namespace rsr::mem
{

/** Byte-addressable sparse memory image. */
class Memory
{
  public:
    static constexpr unsigned pageShift = 12;
    static constexpr std::uint64_t pageSize = 1ull << pageShift;

    Memory() = default;

    /** Read @p bytes (1/2/4/8) at @p addr, zero-extended. */
    std::uint64_t
    read(std::uint64_t addr, unsigned bytes) const
    {
        std::uint64_t v = 0;
        if (sameLine(addr, bytes)) {
            const Page *p = findPage(addr);
            if (!p)
                return 0;
            std::memcpy(&v, p->data() + offset(addr), bytes);
        } else {
            for (unsigned i = 0; i < bytes; ++i)
                v |= std::uint64_t{readByte(addr + i)} << (8 * i);
        }
        return v;
    }

    /** Write the low @p bytes bytes of @p value at @p addr. */
    void
    write(std::uint64_t addr, std::uint64_t value, unsigned bytes)
    {
        if (sameLine(addr, bytes)) {
            Page &p = page(addr);
            std::memcpy(p.data() + offset(addr), &value, bytes);
        } else {
            for (unsigned i = 0; i < bytes; ++i)
                writeByte(addr + i, static_cast<std::uint8_t>(value >> (8 * i)));
        }
    }

    std::uint8_t
    readByte(std::uint64_t addr) const
    {
        const Page *p = findPage(addr);
        return p ? (*p)[offset(addr)] : 0;
    }

    void
    writeByte(std::uint64_t addr, std::uint8_t value)
    {
        page(addr)[offset(addr)] = value;
    }

    /** Read a 32-bit little-endian word (for instruction fetch). */
    std::uint32_t
    readWord(std::uint64_t addr) const
    {
        return static_cast<std::uint32_t>(read(addr, 4));
    }

    /** Number of pages currently materialized. */
    std::size_t numPages() const { return pages.size(); }

    /** Drop all contents. */
    void
    clear()
    {
        pages.clear();
        tlbTag.fill(~std::uint64_t{0});
        tlbPage.fill(nullptr);
    }

  private:
    using Page = std::array<std::uint8_t, pageSize>;

    static bool
    sameLine(std::uint64_t addr, unsigned bytes)
    {
        return (addr >> pageShift) == ((addr + bytes - 1) >> pageShift);
    }

    static std::uint64_t offset(std::uint64_t addr)
    {
        return addr & (pageSize - 1);
    }

    // Lookups go through a direct-mapped translation cache in front of
    // the page table, sized to the workloads' data footprint: 1024
    // entries map 4 MB, above the largest working set (mcf's 2 MB pointer
    // chase plus its stream). Over the Table-2 runs of twolf, gcc and mcf
    // about half of all lookups fell through to the hash map at 16
    // entries and none do at 1024, for 16 KB per memory image. Pages
    // never move once materialized (the map stores unique_ptrs), so
    // cached pointers are invalidated only by clear().
    static constexpr std::size_t tlbEntries = 1024;

    const Page *
    findPage(std::uint64_t addr) const
    {
        const std::uint64_t pn = addr >> pageShift;
        const std::size_t slot = pn & (tlbEntries - 1);
        if (tlbTag[slot] == pn)
            return tlbPage[slot];
        auto it = pages.find(pn);
        if (it == pages.end())
            return nullptr;
        tlbTag[slot] = pn;
        tlbPage[slot] = it->second.get();
        return tlbPage[slot];
    }

    Page &
    page(std::uint64_t addr)
    {
        const std::uint64_t pn = addr >> pageShift;
        const std::size_t slot = pn & (tlbEntries - 1);
        if (tlbTag[slot] == pn)
            return *tlbPage[slot];
        auto &entry = pages[pn];
        if (!entry) {
            entry = std::make_unique<Page>();
            entry->fill(0);
        }
        tlbTag[slot] = pn;
        tlbPage[slot] = entry.get();
        return *entry;
    }

    std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages;
    static constexpr std::array<std::uint64_t, tlbEntries>
    emptyTags()
    {
        std::array<std::uint64_t, tlbEntries> t{};
        t.fill(~std::uint64_t{0});
        return t;
    }

    mutable std::array<std::uint64_t, tlbEntries> tlbTag = emptyTags();
    mutable std::array<Page *, tlbEntries> tlbPage{};
};

} // namespace rsr::mem

#endif // RSR_MEM_MEMORY_HH
