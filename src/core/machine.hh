/**
 * @file
 * Bundled simulated machine: the memory hierarchy, branch unit, and core
 * parameters from the paper's Section 4, constructed as one unit so every
 * experiment runs the identical configuration.
 */

#ifndef RSR_CORE_MACHINE_HH
#define RSR_CORE_MACHINE_HH

#include "branch/predictor.hh"
#include "cache/hierarchy.hh"
#include "uarch/core.hh"
#include "util/snapshot.hh"

namespace rsr::core
{

/** Full machine configuration. */
struct MachineConfig
{
    cache::HierarchyParams hier = cache::HierarchyParams::paperDefault();
    branch::PredictorParams bp;
    uarch::CoreParams core;

    /** The paper's Section-4 machine. */
    static MachineConfig
    paperDefault()
    {
        return MachineConfig{};
    }

    /**
     * The Section-4 machine with the cache capacities scaled down 8x
     * (identical organization: associativities, line size, write
     * policies, buses, latencies, and branch unit).
     *
     * The paper simulates 6-billion-instruction populations, so each
     * skip region contains enough references to cover the L2 many times
     * and enough branches to cover the predictor entries the next cluster
     * will touch; our experiments run millions of instructions to finish
     * in minutes. Scaling capacity with the population preserves the
     * regime the algorithms operate in — skip-region references per cache
     * line and logged branches per predictor entry — which is what
     * warm-up behaviour depends on. Used by the bench harnesses; see
     * DESIGN.md.
     */
    static MachineConfig
    scaledDefault()
    {
        MachineConfig m;
        m.hier.il1.sizeBytes = 16 * 1024;
        m.hier.dl1.sizeBytes = 8 * 1024;
        m.hier.l2.sizeBytes = 128 * 1024;
        m.bp.phtEntries = 2048;
        m.bp.historyBits = 10;
        m.bp.btbEntries = 512;
        return m;
    }
};

/** Stateful machine components shared across a whole sampled run. */
struct Machine : Snapshotable
{
    static constexpr std::uint32_t snapshotTag =
        fourcc('M', 'A', 'C', 'H');
    static constexpr std::uint32_t snapshotVersion = 1;

    explicit Machine(const MachineConfig &config)
        : config(config), hier(config.hier), bp(config.bp)
    {}

    /** Reset microarchitectural state to power-on (not per cluster!). */
    void
    reset()
    {
        hier.reset();
        bp.reset();
    }

    /**
     * Clear everything snapshot() leaves out — bus occupancy, the bus,
     * cache and predictor statistics, the warm-update counter and the
     * predictor's non-owning reconstruction hook — to what a restore
     * into a fresh machine holds.
     */
    void
    clearTransientState()
    {
        hier.clearTransientState();
        bp.clearStats();
        bp.setReconstructionClient(nullptr);
    }

    /**
     * The warmed state by value: a copy holding exactly what snapshot()
     * would write, with every other field as clearTransientState()
     * leaves it. Safe to hand to another thread: it points at nothing
     * of this machine's.
     */
    Machine
    warmCopy() const
    {
        Machine m(*this);
        m.clearTransientState();
        return m;
    }

    /**
     * Snapshot all microarchitectural-input state (caches + branch unit)
     * as one framed 'MACH' component. Core pipeline state is not part of
     * the machine: clusters always start from an empty pipeline.
     */
    void
    snapshot(Serializer &out) const override
    {
        out.begin(snapshotTag, snapshotVersion);
        hier.snapshot(out);
        bp.snapshot(out);
        out.end();
    }

    /** Restore a snapshot; throws CorruptInputError on any mismatch. */
    void
    restore(Deserializer &in) override
    {
        in.begin(snapshotTag, snapshotVersion);
        hier.restore(in);
        bp.restore(in);
        in.end();
    }

    // rsrlint: snap-excluded(construction-time config, keyed separately by configHash)
    MachineConfig config;
    cache::MemoryHierarchy hier;
    branch::GsharePredictor bp;
};

} // namespace rsr::core

#endif // RSR_CORE_MACHINE_HH
