/**
 * @file
 * Warm-up policies for sampled simulation — the full matrix of methods
 * from the paper's Table 2:
 *
 *   None          — caches and branch predictor left stale between clusters
 *   FP (p%)       — full functional warming over the last p% of each skip
 *                   region
 *   S$ / SBP / S$BP — SMARTS full functional warming of the caches, the
 *                   branch predictor, or both, over the entire skip region
 *   R$ (p%) / RBP / R$BP (p%) — Reverse State Reconstruction: log during
 *                   the skip, reconstruct the caches from the most recent
 *                   p% of the reference log immediately before the
 *                   cluster, and rebuild branch-predictor entries
 *                   on demand during the cluster
 *
 * A policy observes every skipped instruction (the cold/warm phases) and
 * is notified at skip and cluster boundaries; the controller in
 * sampled_sim.hh drives it.
 */

#ifndef RSR_CORE_WARMUP_HH
#define RSR_CORE_WARMUP_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/branch_reconstructor.hh"
#include "core/cache_reconstructor.hh"
#include "core/machine.hh"
#include "core/regimen.hh"
#include "core/skip_log.hh"
#include "func/dyninst.hh"
#include "func/program.hh"
#include "util/deadline.hh"
#include "util/snapshot.hh"

namespace rsr::core
{

/** Warm-side work accounting, reported with every sampled run. */
struct WarmupWork
{
    /** Cache/BP state updates applied functionally (SMARTS/FP path). */
    std::uint64_t functionalUpdates = 0;
    /** Updates applied by reverse reconstruction (RSR path). */
    std::uint64_t reconstructionUpdates = 0;
    /** Records appended to the skip-region log. */
    std::uint64_t loggedRecords = 0;
    /** Peak bytes buffered in the log (storage-for-speed tradeoff). */
    std::uint64_t peakLogBytes = 0;

    std::uint64_t
    totalUpdates() const
    {
        return functionalUpdates + reconstructionUpdates;
    }
};

/**
 * Per-cluster measurement-time state a policy wants active *during* the
 * hot phase — RSR's on-demand branch reconstruction is the canonical
 * example. A context is created by the policy at the cluster boundary
 * (after beforeCluster()), owns everything it needs (it may outlive the
 * policy's per-skip log), and is attached to whichever machine actually
 * executes the cluster: the replay machine restored from the cluster's
 * snapshot, on whichever thread replays it.
 */
class MeasureContext
{
  public:
    virtual ~MeasureContext() = default;

    /** Arm the context on the machine about to measure the cluster. */
    virtual void attach(Machine &machine) = 0;

    /**
     * Disarm after the cluster completes.
     * @return reconstruction work units applied on demand.
     */
    virtual std::uint64_t detach(Machine &machine) = 0;

    /**
     * Serialize this context as one framed snapshot so a live-point
     * store can replay the cluster later with identical on-demand
     * warming. The default refuses (UserError): a context that cannot
     * round-trip must not be silently dropped from a store.
     */
    virtual void snapshot(Serializer &out) const;
};

/**
 * Rebuild a MeasureContext from a frame written by
 * MeasureContext::snapshot(). Throws CorruptInputError on a damaged or
 * unrecognized frame.
 */
std::unique_ptr<MeasureContext> restoreMeasureContext(Deserializer &in);

/** Interface every warm-up method implements. */
class WarmupPolicy
{
  public:
    virtual ~WarmupPolicy() = default;

    /** Short identifier as used in the paper (e.g. "R$BP (20%)"). */
    virtual std::string name() const = 0;

    /** ClusterScheduleDriver is about to run this schedule of this
     *  program (once per run, before attach()): a profiled policy
     *  profiles it here, polling @p deadline (may be null) like the
     *  skip phase does. */
    virtual void
    prepare(const func::Program &, const std::vector<Cluster> &,
            const Deadline *)
    {}

    /** Bind to the machine whose state the policy warms. */
    virtual void attach(Machine &machine) { this->machine = &machine; }

    /** A new skip region of @p skip_len instructions begins. */
    virtual void beginSkip(std::uint64_t skip_len) { (void)skip_len; }

    /**
     * Index of the first skipped instruction this policy needs to
     * observe (called once per region, after beginSkip()). The driver
     * fast-forwards the functional simulator over the prefix without
     * capturing instruction records and never calls onSkipInst() for it;
     * a policy that overrides this must account for the unobserved
     * prefix itself. The default observes the whole region.
     */
    virtual std::uint64_t
    observeFrom(std::uint64_t skip_len)
    {
        (void)skip_len;
        return 0;
    }

    /**
     * One skipped (functionally executed) instruction.
     * @param d the committed record
     * @param new_fetch_block first instruction in a new I-cache line
     */
    virtual void onSkipInst(const func::DynInst &d, bool new_fetch_block)
    {
        (void)d;
        (void)new_fetch_block;
    }

    /** The skip region ended; the next cluster is about to execute. */
    virtual void beforeCluster() {}

    /**
     * Hand over measurement-time state for the coming cluster (called
     * once per cluster, after beforeCluster()). The default — and the
     * right answer for eager policies — is no context.
     */
    virtual std::unique_ptr<MeasureContext> makeMeasureContext()
    {
        return nullptr;
    }

    /** The cluster finished executing. */
    virtual void afterCluster() {}

    /** Accumulated warm-side work. */
    const WarmupWork &work() const { return work_; }
    void clearWork() { work_ = WarmupWork{}; }

    /** Fold in reconstruction work done by a detached MeasureContext. */
    void
    addReconstructionWork(std::uint64_t updates)
    {
        work_.reconstructionUpdates += updates;
    }

  protected:
    Machine *machine = nullptr;
    WarmupWork work_;
};

/** "None": state is left entirely stale between clusters. */
class NoWarmup final : public WarmupPolicy
{
  public:
    std::string name() const override { return "None"; }

    /** Nothing to observe: the whole region fast-forwards. */
    std::uint64_t
    observeFrom(std::uint64_t skip_len) override
    {
        return skip_len;
    }
};

/**
 * SMARTS full functional warming (optionally restricted to the trailing
 * fraction of each skip region, which yields the paper's fixed-period
 * policy).
 */
class FunctionalWarmup final : public WarmupPolicy
{
  public:
    /**
     * @param warm_cache warm the cache hierarchy
     * @param warm_bp    warm the branch predictor
     * @param fraction   apply updates over the last `fraction` of each
     *                   skip region (1.0 = SMARTS, <1.0 = fixed period)
     * @param label      presentation name
     */
    FunctionalWarmup(bool warm_cache, bool warm_bp, double fraction,
                     std::string label);

    std::string name() const override { return label; }
    void beginSkip(std::uint64_t skip_len) override;
    void onSkipInst(const func::DynInst &d, bool new_fetch_block) override;

    /**
     * The cold prefix before warmStart is invisible to this policy;
     * account for it up front so onSkipInst sees every observed
     * instruction as warm.
     */
    std::uint64_t
    observeFrom(std::uint64_t skip_len) override
    {
        (void)skip_len;
        skipPos = warmStart;
        return warmStart;
    }

    /** SMARTS warming both components (the paper's S$BP). */
    static std::unique_ptr<FunctionalWarmup> smarts();
    /** SMARTS cache-only (S$). */
    static std::unique_ptr<FunctionalWarmup> smartsCacheOnly();
    /** SMARTS branch-predictor-only (SBP). */
    static std::unique_ptr<FunctionalWarmup> smartsBpOnly();
    /** Fixed-period warming of both components (FP (p%)). */
    static std::unique_ptr<FunctionalWarmup> fixedPeriod(double fraction);

  private:
    bool warmCache;
    bool warmBp;
    double fraction;
    std::string label;
    std::uint64_t skipLen = 0;
    std::uint64_t skipPos = 0;
    std::uint64_t warmStart = 0;
};

/** Reverse State Reconstruction (the paper's contribution). */
class ReverseReconstructionWarmup final : public WarmupPolicy
{
  public:
    /**
     * @param warm_cache reconstruct the cache hierarchy (R$)
     * @param warm_bp    reconstruct the branch predictor (RBP)
     * @param fraction   reconstruct from the most recent `fraction` of
     *                   the logged references (cache side only; the
     *                   branch side is on-demand over the full log)
     * @param pht_mode   ambiguous-counter resolution rule (the paper's
     *                   tie-break, or the apply-to-stale extension)
     */
    ReverseReconstructionWarmup(
        bool warm_cache, bool warm_bp, double fraction,
        PhtResolveMode pht_mode = PhtResolveMode::PaperTieBreak);
    ~ReverseReconstructionWarmup() override;

    std::string name() const override;
    void beginSkip(std::uint64_t skip_len) override;
    void onSkipInst(const func::DynInst &d, bool new_fetch_block) override;
    void beforeCluster() override;
    std::unique_ptr<MeasureContext> makeMeasureContext() override;
    void afterCluster() override;

    const SkipLog &log() const { return skipLog; }

    /** R$ (p%). */
    static std::unique_ptr<ReverseReconstructionWarmup>
    cacheOnly(double fraction);
    /** RBP. */
    static std::unique_ptr<ReverseReconstructionWarmup> bpOnly();
    /** R$BP (p%). */
    static std::unique_ptr<ReverseReconstructionWarmup>
    full(double fraction);

  private:
    bool warmCache;
    bool warmBp;
    double fraction;
    PhtResolveMode phtMode;
    SkipLog skipLog;
};

/**
 * Build the paper's full Table-2 policy list: None, FP (20/40/80%), S$,
 * SBP, S$BP, R$ (20/40/80/100%), RBP, R$BP (20/40/80/100%).
 */
std::vector<std::unique_ptr<WarmupPolicy>> makeTable2Policies();

/**
 * Build a policy from a command-line-friendly name:
 * `none`, `smarts`, `scache`, `sbp`, `fp<percent>`, `rsr<percent>`,
 * `rcache<percent>`, `rbp` — RSR names accept a `+stale` suffix for the
 * apply-to-stale counter-resolution extension — and the reuse-latency
 * baselines `mrrl`, `blrl` (reuse_latency.hh), which profile the
 * schedule they are prepared for. Fatal on unknown names.
 */
std::unique_ptr<WarmupPolicy> makePolicyByName(const std::string &name);

// Per-skipped-instruction policy hooks, defined inline: the skip loop
// (phase_driver.cc) dispatches on the concrete final policy type once per
// skip region, so these bodies inline into the loop instead of costing an
// indirect call per skipped instruction.

inline void
FunctionalWarmup::onSkipInst(const func::DynInst &d, bool new_fetch_block)
{
    const bool in_warm = skipPos++ >= warmStart;
    if (!in_warm)
        return;
    if (warmCache) {
        const std::uint64_t before = machine->hier.warmUpdates();
        if (new_fetch_block)
            machine->hier.warmAccess(d.pc, false, true);
        if (d.inst.isMem())
            machine->hier.warmAccess(d.effAddr, d.inst.isStore(), false);
        work_.functionalUpdates += machine->hier.warmUpdates() - before;
    }
    if (warmBp && d.isBranch()) {
        machine->bp.warmApply(d.pc, d.inst.branchKind(), d.taken, d.nextPc);
        ++work_.functionalUpdates;
    }
}

inline void
ReverseReconstructionWarmup::onSkipInst(const func::DynInst &d,
                                        bool new_fetch_block)
{
    if (warmCache) {
        if (new_fetch_block) {
            skipLog.mem.append(d.pc, d.pc, true, false);
            ++work_.loggedRecords;
        }
        if (d.inst.isMem()) {
            skipLog.mem.append(d.pc, d.effAddr, false, d.inst.isStore());
            ++work_.loggedRecords;
        }
    }
    if (warmBp && d.isBranch()) {
        skipLog.branches.push_back(
            {d.pc, d.nextPc, d.inst.branchKind(), d.taken});
        ++work_.loggedRecords;
    }
}

} // namespace rsr::core

#endif // RSR_CORE_WARMUP_HH
