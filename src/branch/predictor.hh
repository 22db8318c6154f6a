/**
 * @file
 * The branch unit of the paper's Section-4 machine: a 64K-entry gshare
 * predictor of 2-bit saturating counters with a 16-bit global history
 * register, a 4K-entry direct-mapped branch target buffer, and an
 * eight-entry return address stack.
 *
 * The predictor exposes raw-state accessors and pre-access hooks so the
 * Reverse State Reconstruction algorithm can rebuild entries *on demand*
 * during hot execution (paper Section 3.2): every PHT/BTB access first
 * notifies an optional ReconstructionClient, which may reconstruct the
 * entry from the logged skip-region trace before the access proceeds.
 */

#ifndef RSR_BRANCH_PREDICTOR_HH
#define RSR_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "isa/opcode.hh"
#include "util/error.hh"
#include "util/snapshot.hh"

namespace rsr::branch
{

/** Predictor geometry (defaults are the paper's). */
struct PredictorParams
{
    unsigned phtEntries = 64 * 1024;
    unsigned historyBits = 16;
    unsigned btbEntries = 4096;
    unsigned rasEntries = 8;
};

/** 2-bit saturating counter helpers. */
namespace counter
{
constexpr std::uint8_t stronglyNotTaken = 0;
constexpr std::uint8_t weaklyNotTaken = 1;
constexpr std::uint8_t weaklyTaken = 2;
constexpr std::uint8_t stronglyTaken = 3;

/** Forward update: saturate toward the outcome. */
constexpr std::uint8_t
update(std::uint8_t state, bool taken)
{
    if (taken)
        return state == 3 ? 3 : state + 1;
    return state == 0 ? 0 : state - 1;
}

/** Predicted direction. */
constexpr bool taken(std::uint8_t state) { return state >= 2; }
} // namespace counter

/** Per-branch prediction produced at fetch. */
struct Prediction
{
    bool taken = false;
    /** Predicted target; only meaningful when targetValid. */
    std::uint64_t target = 0;
    bool targetValid = false;
};

/** Predictor accounting. */
struct PredictorStats
{
    std::uint64_t lookups = 0;
    std::uint64_t condLookups = 0;
    std::uint64_t condDirMisses = 0;
    std::uint64_t btbMisses = 0;
    std::uint64_t rasMisses = 0;
    std::uint64_t warmUpdates = 0;
};

/** Hooks invoked before PHT/BTB state is read or written. */
class ReconstructionClient
{
  public:
    virtual ~ReconstructionClient() = default;
    /** About to access PHT entry @p index. */
    virtual void ensurePht(std::uint32_t index) = 0;
    /** About to access BTB entry @p index. */
    virtual void ensureBtb(std::uint32_t index) = 0;
};

/** Gshare + BTB + RAS branch unit. */
class GsharePredictor : public Snapshotable
{
  public:
    explicit GsharePredictor(const PredictorParams &params = {});

    const PredictorParams &params() const { return params_; }
    const PredictorStats &stats() const { return stats_; }
    void clearStats() { stats_ = PredictorStats{}; }

    /** Install (or remove) the on-demand reconstruction client. */
    void setReconstructionClient(ReconstructionClient *client)
    {
        recon = client;
    }

    /** The installed reconstruction client (null when none). */
    ReconstructionClient *reconstructionClient() const { return recon; }

    /** PHT index for @p pc under the *current* GHR. */
    std::uint32_t
    phtIndex(std::uint64_t pc) const
    {
        return phtIndexWith(pc, ghr_);
    }

    /** PHT index for @p pc under an explicit history value. */
    std::uint32_t
    phtIndexWith(std::uint64_t pc, std::uint32_t history) const
    {
        return (static_cast<std::uint32_t>(pc >> 2) ^ history) & phtMask;
    }

    /** BTB index for @p pc. */
    std::uint32_t
    btbIndex(std::uint64_t pc) const
    {
        return static_cast<std::uint32_t>(pc >> 2) & btbMask;
    }

    /**
     * Fetch-time prediction for a control instruction of kind @p kind at
     * @p pc. Calls push the RAS and returns pop it here (the committed
     * instruction stream keeps speculative and architectural RAS state
     * identical in this simulator). Defined inline below: both the
     * functional-warming and timing loops hit this once per branch.
     */
    Prediction predict(std::uint64_t pc, isa::BranchKind kind);

    /**
     * Retire-time training: conditional outcomes update the PHT and shift
     * the GHR; taken branches install their target in the BTB.
     */
    void update(std::uint64_t pc, isa::BranchKind kind, bool taken,
                std::uint64_t target);

    /**
     * Full functional warming of one skipped branch (the SMARTS path):
     * identical state effects as predict()+update() back to back, without
     * producing a prediction.
     */
    void warmApply(std::uint64_t pc, isa::BranchKind kind, bool taken,
                   std::uint64_t target);

    /** Reset all tables to power-on state. */
    void reset();

    // --- raw-state access for reconstruction and tests -------------------

    std::uint8_t phtEntry(std::uint32_t index) const { return pht[index]; }
    void setPhtEntry(std::uint32_t index, std::uint8_t value)
    {
        pht[index] = value & 3;
    }

    std::uint32_t ghr() const { return ghr_; }
    void setGhr(std::uint32_t value) { ghr_ = value & ghrMask; }

    bool btbEntryValid(std::uint32_t index) const
    {
        return btb[index].valid;
    }
    std::uint64_t btbEntryTag(std::uint32_t index) const
    {
        return btb[index].tag;
    }
    std::uint64_t btbEntryTarget(std::uint32_t index) const
    {
        return btb[index].target;
    }
    void
    installBtbEntry(std::uint32_t index, std::uint64_t pc,
                    std::uint64_t target)
    {
        btb[index] = {pc, target, true};
    }

    /**
     * Replace the RAS contents. @p entries is ordered top (next return
     * target) first; at most rasEntries are used.
     */
    void setRasContents(const std::vector<std::uint64_t> &entries);

    /** Current RAS contents, top first. */
    std::vector<std::uint64_t> rasContents() const;

    // The RAS index arithmetic uses conditional wrap instead of integer
    // modulo: rasEntries is tiny (8 by default) and the division would
    // otherwise sit on the per-call/per-return hot path.
    void
    rasPush(std::uint64_t return_addr)
    {
        rasTop = rasTop + 1 == params_.rasEntries ? 0 : rasTop + 1;
        ras[rasTop] = return_addr;
        if (rasCount < params_.rasEntries)
            ++rasCount;
    }

    std::uint64_t
    rasPop()
    {
        if (rasCount == 0)
            return 0;
        const std::uint64_t v = ras[rasTop];
        rasTop = rasTop == 0 ? params_.rasEntries - 1 : rasTop - 1;
        --rasCount;
        return v;
    }

    /**
     * Serialize PHT/GHR/BTB/RAS state (not statistics) as one framed
     * 'GSBP' component for live-points and deferred cluster replay.
     */
    void snapshot(Serializer &out) const override;

    /**
     * Restore state captured by snapshot(). Throws CorruptInputError when
     * the frame is damaged or its geometry does not match this predictor.
     */
    void restore(Deserializer &in) override;

  private:
    struct BtbEntry
    {
        std::uint64_t tag = 0;
        std::uint64_t target = 0;
        bool valid = false;
    };

    PredictorParams params_;
    // rsrlint: snap-excluded(derived from params_.phtEntries in the ctor)
    std::uint32_t phtMask;
    // rsrlint: snap-excluded(derived from params_.historyBits in the ctor)
    std::uint32_t ghrMask;
    // rsrlint: snap-excluded(derived from params_.btbEntries in the ctor)
    std::uint32_t btbMask;

    std::vector<std::uint8_t> pht;
    std::vector<BtbEntry> btb;
    std::uint32_t ghr_ = 0;

    // Circular RAS: top points at the most recent valid entry.
    std::vector<std::uint64_t> ras;
    unsigned rasTop = 0;
    unsigned rasCount = 0;

    // rsrlint: snap-excluded(measurement counters, reset per phase rather than replayed)
    PredictorStats stats_;
    // rsrlint: snap-excluded(non-owning runtime hook, re-attached by the phase driver)
    ReconstructionClient *recon = nullptr;
};

// Hot-path definitions, kept in the header so the per-branch work of the
// warming and timing loops inlines into its callers. The reconstruction
// hook is a single predictable null test in the common (no-client) case.

inline Prediction
GsharePredictor::predict(std::uint64_t pc, isa::BranchKind kind)
{
    ++stats_.lookups;
    Prediction p;
    switch (kind) {
      case isa::BranchKind::Conditional: {
        const std::uint32_t idx = phtIndex(pc);
        if (recon)
            recon->ensurePht(idx);
        ++stats_.condLookups;
        p.taken = counter::taken(pht[idx]);
        if (p.taken) {
            const std::uint32_t bidx = btbIndex(pc);
            if (recon)
                recon->ensureBtb(bidx);
            if (btb[bidx].valid && btb[bidx].tag == pc) {
                p.target = btb[bidx].target;
                p.targetValid = true;
            }
        }
        break;
      }
      case isa::BranchKind::DirectJump:
        // Direct targets are available from decode; treat as predicted.
        p.taken = true;
        p.targetValid = false;
        break;
      case isa::BranchKind::Call: {
        p.taken = true;
        const std::uint32_t bidx = btbIndex(pc);
        if (recon)
            recon->ensureBtb(bidx);
        if (btb[bidx].valid && btb[bidx].tag == pc) {
            p.target = btb[bidx].target;
            p.targetValid = true;
        }
        rasPush(pc + 4);
        break;
      }
      case isa::BranchKind::Return:
        p.taken = true;
        p.target = rasPop();
        p.targetValid = p.target != 0;
        break;
      case isa::BranchKind::IndirectJump: {
        p.taken = true;
        const std::uint32_t bidx = btbIndex(pc);
        if (recon)
            recon->ensureBtb(bidx);
        if (btb[bidx].valid && btb[bidx].tag == pc) {
            p.target = btb[bidx].target;
            p.targetValid = true;
        }
        break;
      }
      case isa::BranchKind::NotBranch:
        rsr_throw_internal("predict() called for a non-branch");
    }
    return p;
}

inline void
GsharePredictor::update(std::uint64_t pc, isa::BranchKind kind, bool taken,
                        std::uint64_t target)
{
    if (kind == isa::BranchKind::Conditional) {
        const std::uint32_t idx = phtIndex(pc);
        if (recon)
            recon->ensurePht(idx);
        pht[idx] = counter::update(pht[idx], taken);
        ghr_ = ((ghr_ << 1) | (taken ? 1u : 0u)) & ghrMask;
    }
    if (taken && kind != isa::BranchKind::Return) {
        const std::uint32_t bidx = btbIndex(pc);
        if (recon)
            recon->ensureBtb(bidx);
        btb[bidx] = {pc, target, true};
    }
}

inline void
GsharePredictor::warmApply(std::uint64_t pc, isa::BranchKind kind,
                           bool taken, std::uint64_t target)
{
    // Mirror predict()'s RAS side effects, then train as update() does.
    if (kind == isa::BranchKind::Call)
        rasPush(pc + 4);
    else if (kind == isa::BranchKind::Return)
        rasPop();
    update(pc, kind, taken, target);
    ++stats_.warmUpdates;
}

} // namespace rsr::branch

#endif // RSR_BRANCH_PREDICTOR_HH
