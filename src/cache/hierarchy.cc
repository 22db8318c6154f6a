#include "hierarchy.hh"

#include "util/error.hh"

namespace rsr::cache
{

HierarchyParams
HierarchyParams::paperDefault()
{
    HierarchyParams p;
    p.il1 = {"il1", 64 * 1024, 4, 64,
             WritePolicy::WriteThroughNoAllocate, 1};
    p.dl1 = {"dl1", 32 * 1024, 4, 64,
             WritePolicy::WriteThroughNoAllocate, 2};
    p.l2 = {"l2", 1024 * 1024, 8, 64, WritePolicy::WriteBackAllocate, 12};
    // 2 GHz core: the 16 B L1 bus runs at 1 GHz (2 CPU cycles per beat),
    // the 32 B L2 bus at 2 GHz (1 CPU cycle per beat).
    p.l1Bus = {"l1bus", 16, 2};
    p.l2Bus = {"l2bus", 32, 1};
    p.memLatency = 200;
    return p;
}

MemoryHierarchy::MemoryHierarchy(const HierarchyParams &params)
    : params_(params), il1_(params.il1), dl1_(params.dl1), l2_(params.l2),
      l1Bus_(params.l1Bus), l2Bus_(params.l2Bus)
{}

std::uint64_t
MemoryHierarchy::missToL2(std::uint64_t t, std::uint64_t addr)
{
    // Line request and transfer over the shared L1-L2 bus.
    t = l1Bus_.occupy(t, dl1_.params().lineBytes);
    const AccessOutcome o2 = l2_.access(addr, false);
    t += l2_.params().hitLatency;
    if (!o2.hit) {
        t = l2Bus_.occupy(t, l2_.params().lineBytes);
        if (o2.victimDirty) {
            // The dirty victim drains from the writeback buffer right
            // after the demand transfer; only its bus occupancy is
            // visible to later requests.
            l2Bus_.occupy(t, l2_.params().lineBytes);
        }
        t += params_.memLatency;
    }
    return t;
}

std::uint64_t
MemoryHierarchy::timedLoad(std::uint64_t now, std::uint64_t addr)
{
    const AccessOutcome o1 = dl1_.access(addr, false);
    if (o1.hit)
        return now + dl1_.params().hitLatency;
    std::uint64_t t = missToL2(now, addr);
    return t + dl1_.params().hitLatency;
}

std::uint64_t
MemoryHierarchy::timedStore(std::uint64_t now, std::uint64_t addr)
{
    dl1_.access(addr, true);
    // Write-through: every store crosses the L1 bus (8 B payload).
    std::uint64_t t = l1Bus_.occupy(now, 8);
    const AccessOutcome o2 = l2_.access(addr, true);
    if (!o2.hit) {
        // Write-allocate fill from memory.
        t = l2Bus_.occupy(t, l2_.params().lineBytes);
        if (o2.victimDirty)
            l2Bus_.occupy(t, l2_.params().lineBytes);
        t += params_.memLatency;
    }
    return t;
}

std::uint64_t
MemoryHierarchy::timedFetch(std::uint64_t now, std::uint64_t addr)
{
    const AccessOutcome o1 = il1_.access(addr, false);
    if (o1.hit)
        return now + il1_.params().hitLatency;
    std::uint64_t t = missToL2(now, addr);
    return t + il1_.params().hitLatency;
}

void
MemoryHierarchy::reset()
{
    il1_.invalidateAll();
    dl1_.invalidateAll();
    l2_.invalidateAll();
    l1Bus_.reset();
    l2Bus_.reset();
    warmUpdates_ = 0;
}

void
MemoryHierarchy::clearTransientState()
{
    il1_.clearStats();
    dl1_.clearStats();
    l2_.clearStats();
    l1Bus_.reset();
    l1Bus_.clearStats();
    l2Bus_.reset();
    l2Bus_.clearStats();
    warmUpdates_ = 0;
}

namespace
{
constexpr std::uint32_t hierSnapshotTag = fourcc('H', 'I', 'E', 'R');
constexpr std::uint32_t hierSnapshotVersion = 1;
} // namespace

void
MemoryHierarchy::snapshot(Serializer &out) const
{
    out.begin(hierSnapshotTag, hierSnapshotVersion);
    il1_.snapshot(out);
    dl1_.snapshot(out);
    l2_.snapshot(out);
    out.end();
}

void
MemoryHierarchy::restore(Deserializer &in)
{
    const std::uint32_t version = in.begin(hierSnapshotTag);
    if (version != hierSnapshotVersion)
        rsr_throw_corrupt("unsupported hierarchy snapshot version ",
                          version, " (expected ", hierSnapshotVersion,
                          ")");
    il1_.restore(in);
    dl1_.restore(in);
    l2_.restore(in);
    in.end();
}

} // namespace rsr::cache
