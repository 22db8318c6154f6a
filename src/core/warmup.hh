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
 * and the reuse-latency baselines MRRL and BLRL (reuse_latency.hh). Every
 * policy warms from one input, the skip region's log as `rsr100` writes
 * it (core::RegionProducer, phase_driver.hh), through one entry,
 * consumeRegion(). Two mechanisms cover them all: FunctionalWarmup
 * applies the log's tail forward (None, FP, S$, SBP, S$BP, MRRL, BLRL),
 * and ReverseReconstructionWarmup reconstructs from the log backward
 * (R$, RBP, R$BP). makePolicyByName() builds every policy.
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
#include "core/reuse_latency.hh"
#include "core/skip_log.hh"
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
 * Measurement-time half of RBP/R$BP: on-demand branch reconstruction,
 * active *during* the hot phase. ReverseReconstructionWarmup creates it
 * at the cluster boundary (after beforeCluster()) over the branch half
 * of the region log it consumed, borrowing those records: every sampled
 * run keeps the region log until the cluster is measured. A caller that
 * refills the log first (CapturePhase) own()s a copy. It is attached to
 * whichever machine actually executes the cluster: the replay machine
 * holding the cluster's warm state, on whichever thread measures it.
 */
class MeasureContext
{
  public:
    /** Own @p branch_log's branch records and start GHR. */
    MeasureContext(SkipLog &&branch_log, PhtResolveMode mode);

    /** Borrow @p branches (must outlive the context, unless own()ed)
     *  of a skip region that began with GHR @p ghr_at_start. */
    MeasureContext(const std::vector<BranchRecord> &branches,
                   std::uint32_t ghr_at_start, PhtResolveMode mode);

    MeasureContext(const MeasureContext &) = delete;
    MeasureContext &operator=(const MeasureContext &) = delete;

    /** The branch records the context reconstructs from. */
    const std::vector<BranchRecord> &records() const { return *branches; }

    /**
     * Stop borrowing: own @p records, the records() the context reads,
     * moved out of their owner (or copied), so the context outlives it.
     */
    void own(std::vector<BranchRecord> &&records);

    /** Arm the context on the machine about to measure the cluster. */
    void attach(Machine &machine);

    /**
     * Disarm after the cluster completes.
     * @return reconstruction work units applied on demand.
     */
    std::uint64_t detach(Machine &machine);

    /**
     * Serialize this context as one framed snapshot so a live-point
     * store can replay the cluster later with identical on-demand
     * warming.
     */
    void snapshot(Serializer &out) const;

  private:
    std::vector<BranchRecord> owned; ///< empty while borrowing
    const std::vector<BranchRecord> *branches;
    std::uint32_t ghrAtStart;
    PhtResolveMode mode;
    std::unique_ptr<BranchReconstructor> recon;
};

/**
 * Rebuild a MeasureContext from a frame written by
 * MeasureContext::snapshot(). Throws CorruptInputError on a damaged or
 * unrecognized frame.
 */
std::unique_ptr<MeasureContext> restoreMeasureContext(Deserializer &in);

/** Base of the two warm-up mechanisms. */
class WarmupPolicy
{
  public:
    virtual ~WarmupPolicy() = default;

    /** Short identifier as used in the paper (e.g. "R$BP (20%)"). */
    virtual std::string name() const = 0;

    /** A sampled run is about to run this schedule of this program
     *  (once per run, before its first region; RegionConsumer::prepare):
     *  a profiled policy profiles it here, polling @p deadline (may be
     *  null) like the skip phase does. */
    virtual void
    prepare(const func::Program &, const std::vector<Cluster> &,
            const Deadline *)
    {}

    /** Bind to the machine whose state the policy warms. */
    void attach(Machine &machine) { this->machine = &machine; }

    /** Does the policy warm the cache hierarchy / the branch unit? */
    bool warmsCache() const { return warmCache; }
    bool warmsBranches() const { return warmBp; }

    /**
     * Index of the first instruction of skip region @p region (0-based,
     * @p skip_len instructions) this policy needs to observe: the
     * region log handed to consumeRegion() holds this policy's records
     * from there on, and the functional simulator fast-forwards over
     * the prefix without capturing instruction records. A function of
     * the prepared schedule only, so a sweep's producer may ask while
     * the policy is busy warming an earlier region. The default
     * observes the whole region.
     */
    virtual std::uint64_t
    observeFrom(std::size_t region, std::uint64_t skip_len) const
    {
        (void)region;
        (void)skip_len;
        return 0;
    }

    /**
     * The one warm entry, once per skip region: @p log holds the
     * region's fetch-block and data references and branch records as
     * `rsr100` logs them, and @p from is this policy's cursor, at its
     * observeFrom(). The log stays unchanged until the cluster is
     * captured (makeMeasureContext()).
     */
    virtual void consumeRegion(const SkipLog &log, LogCursor from) = 0;

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
    WarmupPolicy(bool warm_cache, bool warm_bp)
        : warmCache(warm_cache), warmBp(warm_bp)
    {}

    const bool warmCache;
    const bool warmBp;
    Machine *machine = nullptr;
    WarmupWork work_;
};

/**
 * Functional warming of the tail of each skip region: every skipped
 * instruction from the region's warm start on updates the cache
 * hierarchy and/or the branch predictor, and the cold prefix before it
 * fast-forwards unobserved. The warm start is a fixed fraction of the
 * region (None = 0, FP (p%) = p%, SMARTS = 1) or a profiled length per
 * region (MRRL, BLRL).
 */
class FunctionalWarmup final : public WarmupPolicy
{
  public:
    /**
     * @param warm_cache warm the cache hierarchy
     * @param warm_bp    warm the branch predictor
     * @param fraction   warm the last `fraction` of each skip region
     *                   (1 = SMARTS, 0 = None, which warms neither)
     * @param label      presentation name
     */
    FunctionalWarmup(bool warm_cache, bool warm_bp, double fraction,
                     std::string label);

    /**
     * MRRL/BLRL: warm both components over a per-region tail that
     * prepare() profiles from the exact schedule the run measures.
     * @param percentile the fraction of reuses the warm-up must cover
     */
    explicit FunctionalWarmup(ReuseLatencyKind kind,
                              double percentile = 0.995);

    std::string name() const override { return label; }
    void prepare(const func::Program &program,
                 const std::vector<Cluster> &schedule,
                 const Deadline *deadline) override;
    void consumeRegion(const SkipLog &log, LogCursor from) override;

    /** The region's warm start: the cold prefix is never observed. */
    std::uint64_t observeFrom(std::size_t region,
                              std::uint64_t skip_len) const override;

    /** The profile of the last prepared schedule (MRRL/BLRL only). */
    const ReuseLatencyProfile &profile() const { return profile_; }

  private:
    double fraction;
    std::string label;
    /** MRRL/BLRL: take each region's warm length from profile_. */
    bool profiled = false;
    double percentile = 0.0;
    ReuseLatencyProfile profile_;
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

    std::string name() const override;
    void consumeRegion(const SkipLog &log, LogCursor from) override;
    void beforeCluster() override;
    std::unique_ptr<MeasureContext> makeMeasureContext() override;

  private:
    double fraction;
    PhtResolveMode phtMode;
    /** The log of the current region (the last one consumed). */
    const SkipLog *region = nullptr;
    /** This machine's GHR when the current region began. */
    std::uint32_t ghrAtStart = 0;
};

/**
 * The paper's full Table-2 policy list by makePolicyByName() name:
 * None, FP (20/40/80%), S$, SBP, S$BP, R$ (20/40/80/100%), RBP,
 * R$BP (20/40/80/100%).
 */
const std::vector<std::string> &table2PolicyNames();

/**
 * Build a policy from a command-line-friendly name — the one way to
 * build a policy:
 * `none`, `smarts`, `scache`, `sbp`, `fp<percent>`, `rsr<percent>`,
 * `rcache<percent>`, `rbp` — the RSR names (`rsr`, `rcache`, `rbp`)
 * accept a `+stale` suffix for the apply-to-stale counter-resolution
 * extension — and the reuse-latency baselines `mrrl`, `blrl`
 * (reuse_latency.hh), which profile the schedule they are prepared for.
 * A percentage is 1–100 with no leading zero, so each policy has one
 * name. Any other name is a UserError naming it.
 */
std::unique_ptr<WarmupPolicy> makePolicyByName(const std::string &name);

} // namespace rsr::core

#endif // RSR_CORE_WARMUP_HH
