#include "branch_reconstructor.hh"

#include "util/bitutil.hh"
#include "util/logging.hh"

namespace rsr::core
{

using isa::BranchKind;

BranchReconstructor::BranchReconstructor(branch::GsharePredictor &bp,
                                         PhtResolveMode mode)
    : bp(bp), mode(mode), infer(CounterInference::instance())
{
    pht.resize(bp.params().phtEntries);
    btbDone.resize(bp.params().btbEntries);
}

BranchReconstructor::~BranchReconstructor()
{
    if (active())
        end();
}

void
BranchReconstructor::begin(const SkipLog &skip_log)
{
    begin(skip_log.branches, skip_log.ghrAtStart);
}

void
BranchReconstructor::begin(const std::vector<BranchRecord> &branches,
                           std::uint32_t ghr_at_start)
{
    rsr_assert(!active(), "begin() while a reconstruction is active");
    log = &branches;
    const auto &br = branches;
    const std::uint32_t ghr_mask =
        static_cast<std::uint32_t>(maskBits(bp.params().historyBits));

    // Reproduce the GHR before every logged branch; the final value
    // (equivalently: the last n logged outcomes) reconstructs the GHR for
    // the coming cluster.
    ghrBefore.resize(br.size());
    std::uint32_t ghr = ghr_at_start;
    for (std::size_t i = 0; i < br.size(); ++i) {
        ghrBefore[i] = ghr;
        if (br[i].kind == BranchKind::Conditional)
            ghr = ((ghr << 1) | (br[i].taken ? 1u : 0u)) & ghr_mask;
    }
    bp.setGhr(ghr);

    // Reverse RAS reconstruction (Figure 4): a counter tracks pops still
    // unmatched while scanning backwards; a call seen with a zero counter
    // survives into the final stack, newest survivor on top.
    std::vector<std::uint64_t> ras_top_first;
    std::uint64_t pending_pops = 0;
    for (std::size_t i = br.size(); i-- > 0;) {
        if (ras_top_first.size() >= bp.params().rasEntries)
            break;
        if (br[i].kind == BranchKind::Return) {
            ++pending_pops;
        } else if (br[i].kind == BranchKind::Call) {
            if (pending_pops == 0)
                ras_top_first.push_back(br[i].pc + 4);
            else
                --pending_pops;
        }
    }
    if (!ras_top_first.empty()) {
        bp.setRasContents(ras_top_first);
        stats_.rasReconstructed += ras_top_first.size();
    }

    // Arm the on-demand cursor over the whole log; PHT/BTB entries stay
    // stale until first touched in the next cluster.
    cursor = br.size();
    std::fill(pht.begin(), pht.end(), PhtState{});
    std::fill(btbDone.begin(), btbDone.end(), 0);
    bp.setReconstructionClient(this);
}

void
BranchReconstructor::end()
{
    rsr_assert(active(), "end() without begin()");
    bp.setReconstructionClient(nullptr);
    log = nullptr;
    ghrBefore.clear();
}

void
BranchReconstructor::stepCursor()
{
    --cursor;
    const BranchRecord &r = (*log)[cursor];
    ++stats_.recordsScanned;

    if (r.kind == BranchKind::Conditional) {
        const std::uint32_t idx = bp.phtIndexWith(r.pc, ghrBefore[cursor]);
        PhtState &st = pht[idx];
        if (!st.finalized) {
            if (!st.anyHistory) {
                st.anyHistory = true;
                st.newestOutcome = r.taken;
            }
            st.g = infer.observeOlder(st.g, r.taken);
            if (infer.determined(st.g))
                finalizePht(idx);
        }
    }

    // The BTB records the most recent taken target per entry; returns are
    // predicted by the RAS and never train the BTB.
    if (r.taken && r.kind != BranchKind::Return &&
        r.kind != BranchKind::NotBranch) {
        const std::uint32_t bidx = bp.btbIndex(r.pc);
        if (!btbDone[bidx]) {
            bp.installBtbEntry(bidx, r.pc, r.target);
            btbDone[bidx] = 1;
            ++stats_.btbReconstructed;
        }
    }
}

void
BranchReconstructor::finalizePht(std::uint32_t index)
{
    PhtState &st = pht[index];
    if (mode == PhtResolveMode::ApplyToStale) {
        if (st.anyHistory) {
            bp.setPhtEntry(index,
                           CounterInference::apply(st.g,
                                                   bp.phtEntry(index)));
            ++stats_.phtReconstructed;
        } else {
            ++stats_.phtStale;
        }
        st.finalized = true;
        return;
    }
    const auto res = infer.resolve(st.g, st.anyHistory, st.newestOutcome);
    if (res.known) {
        bp.setPhtEntry(index, res.value);
        ++stats_.phtReconstructed;
    } else {
        ++stats_.phtStale; // no history: counter value left stale
    }
    st.finalized = true;
}

void
BranchReconstructor::ensurePht(std::uint32_t index)
{
    ++stats_.demands;
    if (pht[index].finalized)
        return;
    while (cursor > 0 && !pht[index].finalized)
        stepCursor();
    if (!pht[index].finalized)
        finalizePht(index);
}

void
BranchReconstructor::ensureBtb(std::uint32_t index)
{
    ++stats_.demands;
    if (btbDone[index])
        return;
    while (cursor > 0 && !btbDone[index])
        stepCursor();
    // Log exhausted without touching this entry: it stays stale.
    btbDone[index] = 1;
}

} // namespace rsr::core
