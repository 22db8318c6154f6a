/**
 * @file
 * Reverse branch-predictor reconstruction (paper Section 3.2).
 *
 * At the cluster boundary the global history register is rebuilt from the
 * logged conditional outcomes and the return address stack is rebuilt with
 * the reverse push/pop counter algorithm of Figure 4. PHT and BTB entries
 * are then reconstructed *on demand* during hot execution: each predictor
 * access first consults this object; if the entry has not been
 * reconstructed, a cursor walks the logged trace backwards — rebuilding
 * every entry it passes, so the log is consumed at most once per cluster —
 * until the demanded entry's 2-bit counter is determined (via the
 * a-priori inference table) or the log is exhausted, in which case the
 * remaining possible-state set is resolved with the paper's tie-break
 * rules. Because the full outcome sequence is logged, the gshare index of
 * every logged branch is reproduced exactly (the GHR at each log position
 * is recomputed from the GHR value captured when the skip began).
 */

#ifndef RSR_CORE_BRANCH_RECONSTRUCTOR_HH
#define RSR_CORE_BRANCH_RECONSTRUCTOR_HH

#include <cstdint>
#include <vector>

#include "branch/predictor.hh"
#include "core/counter_inference.hh"
#include "core/skip_log.hh"

namespace rsr::core
{

/** Accounting from one cluster's worth of on-demand reconstruction. */
struct BranchReconstructionStats
{
    std::uint64_t recordsScanned = 0;
    std::uint64_t phtReconstructed = 0;
    std::uint64_t phtStale = 0; ///< demanded but no usable history
    std::uint64_t btbReconstructed = 0;
    std::uint64_t rasReconstructed = 0;
    std::uint64_t demands = 0;
};

/** How ambiguous counter states are resolved when the log runs out. */
enum class PhtResolveMode : std::uint8_t
{
    /**
     * The paper's rules (Sec. 3.2): biased set -> weak form; three
     * states -> middle; {WNT,WT} straddle -> weak form of the newest
     * outcome; no history -> stale.
     */
    PaperTieBreak,
    /**
     * Extension (ablation): apply the composed update function to the
     * *stale* counter value. If the stale value was exact at the start
     * of the skip (true whenever the previous cluster left the entry
     * correct), this reproduces SMARTS' final value exactly, at the cost
     * of trusting state that may itself have drifted.
     */
    ApplyToStale,
};

/** On-demand reverse reconstructor for the gshare/BTB/RAS branch unit. */
class BranchReconstructor : public branch::ReconstructionClient
{
  public:
    explicit BranchReconstructor(
        branch::GsharePredictor &bp,
        PhtResolveMode mode = PhtResolveMode::PaperTieBreak);
    ~BranchReconstructor() override;

    BranchReconstructor(const BranchReconstructor &) = delete;
    BranchReconstructor &operator=(const BranchReconstructor &) = delete;

    /**
     * Prepare for the next cluster: rebuild GHR and RAS eagerly from
     * @p log, arm the on-demand cursor, and attach to the predictor.
     * @p log must outlive the reconstruction (until end()).
     */
    void begin(const SkipLog &log);

    /** begin() over a branch log whose skip region began with GHR
     *  @p ghr_at_start; @p branches must outlive the reconstruction. */
    void begin(const std::vector<BranchRecord> &branches,
               std::uint32_t ghr_at_start);

    /** Detach from the predictor and drop per-cluster state. */
    void end();

    bool active() const { return log != nullptr; }
    const BranchReconstructionStats &stats() const { return stats_; }
    void clearStats() { stats_ = BranchReconstructionStats{}; }

    // ReconstructionClient interface (called by the predictor).
    void ensurePht(std::uint32_t index) override;
    void ensureBtb(std::uint32_t index) override;

  private:
    /** Consume one older record from the log. */
    void stepCursor();

    /** Finalize a PHT entry from its accumulated history. */
    void finalizePht(std::uint32_t index);

    struct PhtState
    {
        CounterInference::StateFn g = CounterInference::identity;
        bool anyHistory = false;
        bool newestOutcome = false;
        bool finalized = false;
    };

    branch::GsharePredictor &bp;
    const PhtResolveMode mode;
    const CounterInference &infer;
    const std::vector<BranchRecord> *log = nullptr;
    /** GHR value immediately before each logged branch executed. */
    std::vector<std::uint32_t> ghrBefore;
    /** Next (older) record to consume; processed records are [cursor,n). */
    std::size_t cursor = 0;
    std::vector<PhtState> pht;
    std::vector<std::uint8_t> btbDone;
    BranchReconstructionStats stats_;
};

} // namespace rsr::core

#endif // RSR_CORE_BRANCH_RECONSTRUCTOR_HH
