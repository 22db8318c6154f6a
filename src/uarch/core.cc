// The cycle-accurate out-of-order core model: every measured
// instruction passes through here, so this file is a lint-enforced hot
// path (no stream flushes, no throw statements).
// rsrlint: hot

#include "core.hh"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/logging.hh"

namespace rsr::uarch
{

using func::DynInst;
using isa::BranchKind;
using isa::Format;
using isa::Opcode;
using isa::OpClass;

unsigned
CoreParams::latencyFor(OpClass cls) const
{
    switch (cls) {
      case OpClass::IntMul: return intMulLat;
      case OpClass::IntDiv: return intDivLat;
      case OpClass::FpAdd: return fpAddLat;
      case OpClass::FpMul: return fpMulLat;
      case OpClass::FpDiv: return fpDivLat;
      default: return intAluLat;
    }
}

namespace
{

constexpr std::uint64_t noSeq = ~std::uint64_t{0};
constexpr unsigned fpRegBase = 32; ///< FP regs occupy slots 32..63.

/**
 * Collect the (unified int+FP) source register slots of an instruction.
 * Returns the number written into @p out (at most 2). r0 is skipped.
 */
unsigned
gatherSrcs(const isa::Inst &in, unsigned out[2])
{
    unsigned n = 0;
    auto add_int = [&](unsigned r) {
        if (r != 0)
            out[n++] = r;
    };
    auto add_fp = [&](unsigned r) { out[n++] = fpRegBase + r; };

    switch (in.op) {
      case Opcode::Nop:
      case Opcode::Halt:
      case Opcode::Lui:
      case Opcode::J:
      case Opcode::Jal:
        break;
      case Opcode::Fadd:
      case Opcode::Fsub:
      case Opcode::Fmul:
      case Opcode::Fdiv:
      case Opcode::Fcmplt:
        add_fp(in.rs1);
        add_fp(in.rs2);
        break;
      case Opcode::Fcvt:
        add_int(in.rs1);
        break;
      case Opcode::Fsd:
        add_int(in.rs1);
        add_fp(in.rs2);
        break;
      default:
        switch (isa::opcodeFormat(in.op)) {
          case Format::R:
          case Format::S:
          case Format::B:
            add_int(in.rs1);
            add_int(in.rs2);
            break;
          case Format::I:
          case Format::JR:
            add_int(in.rs1);
            break;
          default:
            break;
        }
    }
    return n;
}

/** Destination register slot, or -1 if none. */
int
destOf(const isa::Inst &in)
{
    switch (in.op) {
      case Opcode::Fadd:
      case Opcode::Fsub:
      case Opcode::Fmul:
      case Opcode::Fdiv:
      case Opcode::Fcvt:
      case Opcode::Fld:
        return static_cast<int>(fpRegBase + in.rd);
      case Opcode::Fcmplt:
        return in.rd == 0 ? -1 : static_cast<int>(in.rd);
      case Opcode::Nop:
      case Opcode::Halt:
      case Opcode::J:
        return -1;
      default:
        break;
    }
    switch (isa::opcodeFormat(in.op)) {
      case Format::S:
      case Format::B:
      case Format::J26:
        return -1;
      default:
        return in.rd == 0 ? -1 : static_cast<int>(in.rd);
    }
}

/** Does the fetched prediction mismatch the committed outcome? */
bool
isMispredict(const branch::Prediction &p, const DynInst &d)
{
    switch (d.inst.branchKind()) {
      case BranchKind::Conditional:
        // Direct conditional targets are computable at decode; direction
        // is what the PHT must get right.
        return p.taken != d.taken;
      case BranchKind::DirectJump:
        return false;
      case BranchKind::Call:
        if (d.inst.op == Opcode::Jal)
            return false; // direct call: target from decode
        return !p.targetValid || p.target != d.nextPc;
      case BranchKind::Return:
      case BranchKind::IndirectJump:
        return !p.targetValid || p.target != d.nextPc;
      default:
        return false;
    }
}

/**
 * A FIFO in one contiguous power-of-two buffer, indexed from the head.
 * It doubles only when full, so its memory follows occupancy, never the
 * configured queue size.
 */
template <typename T>
class Ring
{
  public:
    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    T &operator[](std::size_t i) { return buf[(head + i) & mask]; }
    T &front() { return buf[head]; }

    /**
     * Append an entry and return it as the slot last held it: the
     * caller sets every field, so nothing is written twice.
     */
    T &
    push()
    {
        if (count == buf.size())
            grow();
        return buf[(head + count++) & mask];
    }

    /** Call @p f(first, n) on the entries, oldest first, as at most two
     *  contiguous runs. */
    template <typename F>
    void
    forEachRun(F f) const
    {
        const std::size_t first = std::min(count, buf.size() - head);
        f(buf.data() + head, first);
        f(buf.data(), count - first);
    }

    void
    pop_front()
    {
        head = (head + 1) & mask;
        --count;
    }

  private:
    void
    grow()
    {
        std::vector<T> bigger(buf.empty() ? 8 : 2 * buf.size());
        for (std::size_t i = 0; i < count; ++i)
            bigger[i] = (*this)[i];
        buf.swap(bigger);
        head = 0;
        mask = buf.size() - 1;
    }

    std::vector<T> buf;
    std::size_t head = 0;
    std::size_t count = 0;
    std::size_t mask = 0;
};

} // namespace

OoOCore::OoOCore(const CoreParams &params, cache::MemoryHierarchy &hier,
                 branch::GsharePredictor &bp)
    : params_(params), hier(hier), bp(bp)
{}

RunResult
OoOCore::run(InstSource &src, std::uint64_t max_insts)
{
    struct Flight
    {
        DynInst d;
        /** Earliest issue cycle from operand availability; raised by
         *  each producer as it issues. */
        std::uint64_t readyBase = 0;
        /** Head of this producer's chain of waiting operands, as a
         *  `consumer seq << 1 | operand` link (noSeq ends a chain). */
        std::uint64_t firstWaiter = noSeq;
        /** The next link after operand i in its producer's chain. */
        std::uint64_t nextWaiter[2] = {noSeq, noSeq};
        /** Execution latency of a non-load, decoded at dispatch. */
        unsigned latency = 0;
        /** Destination register slot, or -1, decoded at dispatch. */
        int dst = -1;
        /** Producers this instruction still waits on to issue. */
        unsigned waitingOn = 0;
        bool issued = false;
        bool isMem = false;
        bool isLoad = false;
        bool isBranch = false;
        bool mispredicted = false;
        bool resolved = false;
    };

    struct Fetched
    {
        DynInst d;
        std::uint64_t availCycle = 0;
        bool mispredicted = false;
    };

    RunResult res;
    if (max_insts == 0)
        return res;

    Ring<Fetched> fetchBuf;
    Ring<Flight> rob;
    // Each ROB entry's completion cycle, at the same position in a ring
    // that grows and retires in step with the ROB: 0 until the entry
    // issues, then final. An idle cycle's search for the next event
    // scans these packed words instead of whole Flight entries.
    Ring<std::uint64_t> completion;
    // Age-ordered work lists over the ROB, so the per-cycle stages visit
    // exactly the entries they can act on: sequence numbers of
    // instructions whose producers have all issued but which have not
    // issued themselves, of dispatched-but-unresolved branches, and of
    // in-flight stores. Each list is in dispatch order, i.e. age order,
    // so each stage sees entries oldest-first exactly as a full ROB scan
    // would. Instructions still waiting on a producer sit on that
    // producer's waiter chain instead, and join the ready list when the
    // last of their producers issues.
    std::vector<std::uint64_t> ready;
    std::vector<std::uint64_t> br_seqs;
    std::vector<std::uint64_t> st_seqs;
    std::uint64_t iq_count = 0;
    unsigned lsq_count = 0;
    std::uint64_t reg_ready[64] = {};
    std::uint64_t last_writer[64];
    std::fill(std::begin(last_writer), std::end(last_writer), noSeq);

    std::uint64_t now = 0;
    std::uint64_t fetch_blocked_until = 0;
    std::uint64_t waiting_branch = noSeq;
    std::uint64_t cur_fetch_block = ~std::uint64_t{0};
    bool src_done = false;
    bool pending_valid = false;
    DynInst pending;
    std::uint64_t fed = 0;

    const std::uint64_t line_mask =
        ~std::uint64_t{hier.il1().params().lineBytes - 1};

    const std::uint64_t cycle_limit =
        max_insts * 2000 + 10'000'000ull; // runaway-model guard

    while (true) {
        if (src_done && !pending_valid && fetchBuf.empty() && rob.empty())
            break;
        rsr_assert(now < cycle_limit, "timing model failed to make "
                   "progress (cycle ", now, ")");

        unsigned resolved_n = 0;
        unsigned committed = 0;
        unsigned issued_n = 0;
        unsigned dispatched = 0;
        unsigned fetched = 0;

        // ------------------------------------------------------- resolve
        // br_seqs holds exactly the dispatched-but-unresolved branches,
        // oldest first; an entry leaves the list the cycle it resolves,
        // and resolution gates commit, so every listed seq is still in
        // the ROB.
        for (auto it = br_seqs.begin(); it != br_seqs.end();) {
            const std::size_t idx = *it - rob.front().d.seq;
            Flight &f = rob[idx];
            const std::uint64_t done = completion[idx];
            if (f.issued && done <= now) {
                f.resolved = true;
                ++resolved_n;
                if (f.mispredicted && waiting_branch == f.d.seq) {
                    fetch_blocked_until = std::max(
                        now, done + params_.minMispredictPenalty);
                    waiting_branch = noSeq;
                    cur_fetch_block = ~std::uint64_t{0};
                }
                it = br_seqs.erase(it);
            } else {
                ++it;
            }
        }

        // -------------------------------------------------------- commit
        while (!rob.empty() && committed < params_.retireWidth) {
            Flight &f = rob.front();
            if (!(f.issued && completion.front() <= now))
                break;
            if (f.isBranch && !f.resolved)
                break;
            if (f.isMem) {
                --lsq_count;
                // A committing store is the oldest in-flight store.
                if (!f.isLoad)
                    st_seqs.erase(st_seqs.begin());
            }
            if (f.isBranch) {
                const BranchKind kind = f.d.inst.branchKind();
                bp.update(f.d.pc, kind, f.d.taken, f.d.nextPc);
            }
            ++res.insts;
            ++committed;
            rob.pop_front();
            completion.pop_front();
        }

        // --------------------------------------------------------- issue
        // Visit exactly the ready entries, oldest first. An issuing
        // producer's completion cycle is final, so it wakes its consumers
        // now: each latches that time into readyBase and joins the ready
        // list at its age position once nothing else holds it back. A
        // consumer is younger than its producer, so it lands after the
        // cursor and a zero-latency producer's consumer issues later in
        // this same pass, exactly as in an oldest-first scan of the IQ.
        const std::uint64_t base = rob.empty() ? 0 : rob.front().d.seq;
        for (std::size_t i = 0;
             i < ready.size() && issued_n < params_.issueWidth &&
             issued_n < params_.numFUs;) {
            Flight &f = rob[ready[i] - base];
            if (f.readyBase > now) {
                ++i;
                continue;
            }
            std::uint64_t &done = completion[ready[i] - base];

            f.issued = true;
            ++issued_n;
            --iq_count;
            if (f.isLoad) {
                ++res.loads;
                // Store-to-load forwarding: the youngest older in-flight
                // store to the same word supplies the data from the LSQ.
                const std::uint64_t *fwd = nullptr;
                if (params_.storeForwarding) {
                    for (const std::uint64_t sseq : st_seqs) {
                        if (sseq >= f.d.seq)
                            break;
                        const Flight &st = rob[sseq - base];
                        if (st.issued &&
                            (st.d.effAddr & ~7ull) == (f.d.effAddr & ~7ull))
                            fwd = &completion[sseq - base];
                    }
                }
                if (fwd) {
                    ++res.forwardedLoads;
                    done = std::max(now, *fwd) + params_.forwardLatency;
                } else {
                    done = hier.timedLoad(now, f.d.effAddr);
                }
            } else {
                if (f.isMem) {
                    ++res.stores;
                    hier.timedStore(now, f.d.effAddr);
                }
                done = now + f.latency;
            }
            // Publish the value-ready time only while this is still the
            // youngest writer; younger writers' consumers are woken by
            // them instead.
            if (f.dst >= 0 && last_writer[f.dst] == f.d.seq)
                reg_ready[f.dst] = done;
            ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(i));
            for (std::uint64_t link = f.firstWaiter; link != noSeq;) {
                Flight &c = rob[(link >> 1) - base];
                link = c.nextWaiter[link & 1];
                c.readyBase = std::max(c.readyBase, done);
                if (--c.waitingOn == 0)
                    ready.insert(std::lower_bound(ready.begin() +
                                     static_cast<std::ptrdiff_t>(i),
                                     ready.end(), c.d.seq),
                                 c.d.seq);
            }
        }

        // ------------------------------------------------------ dispatch
        bool dispatch_stalled = false;
        while (dispatched < params_.dispatchWidth && !fetchBuf.empty()) {
            Fetched &fe = fetchBuf.front();
            if (fe.availCycle > now)
                break;
            if (rob.size() >= params_.robSize ||
                iq_count >= params_.iqSize) {
                dispatch_stalled = true;
                break;
            }
            const bool is_mem = fe.d.inst.isMem();
            if (is_mem && lsq_count >= params_.lsqSize) {
                dispatch_stalled = true;
                break;
            }
            const bool is_br = fe.d.isBranch();
            if (is_br &&
                br_seqs.size() >= params_.maxUnresolvedBranches) {
                dispatch_stalled = true;
                break;
            }

            // Every field is set here, once: the slot holds a retired
            // entry's leftovers.
            Flight &f = rob.push();
            completion.push() = 0;
            f.d = fe.d;
            f.readyBase = now + 1;
            f.firstWaiter = noSeq;
            f.nextWaiter[0] = f.nextWaiter[1] = noSeq;
            f.latency = is_mem ? params_.intAluLat
                               : params_.latencyFor(fe.d.inst.opClass());
            f.dst = destOf(fe.d.inst);
            f.waitingOn = 0;
            f.issued = false;
            f.isMem = is_mem;
            f.isLoad = fe.d.inst.isLoad();
            f.isBranch = is_br;
            f.mispredicted = fe.mispredicted;
            f.resolved = false;

            // The new entry is the youngest, so any in-flight producer
            // sits at a smaller index; a retired one is below the head.
            const std::uint64_t head_seq = rob.front().d.seq;
            unsigned srcs[2];
            const unsigned nsrc = gatherSrcs(fe.d.inst, srcs);
            for (unsigned i = 0; i < nsrc; ++i) {
                const unsigned s = srcs[i];
                const std::uint64_t wseq = last_writer[s];
                if (wseq == noSeq || wseq < head_seq) {
                    f.readyBase = std::max(f.readyBase, reg_ready[s]);
                    continue;
                }
                Flight &w = rob[wseq - head_seq];
                if (!w.issued) {
                    // Wait on the producer's chain until it issues.
                    f.nextWaiter[i] = w.firstWaiter;
                    w.firstWaiter = (f.d.seq << 1) | i;
                    ++f.waitingOn;
                } else {
                    f.readyBase =
                        std::max(f.readyBase, completion[wseq - head_seq]);
                }
            }
            if (f.dst >= 0)
                last_writer[f.dst] = f.d.seq;

            ++iq_count;
            if (f.waitingOn == 0)
                ready.push_back(f.d.seq);
            if (is_mem) {
                ++lsq_count;
                if (!f.isLoad)
                    st_seqs.push_back(f.d.seq);
            }
            if (is_br)
                br_seqs.push_back(f.d.seq);
            fetchBuf.pop_front();
            ++dispatched;
        }

        // --------------------------------------------------------- fetch
        if (now >= fetch_blocked_until && waiting_branch == noSeq) {
            while (fetched < params_.fetchWidth &&
                   fetchBuf.size() < params_.fetchBufferSize) {
                if (!pending_valid) {
                    if (src_done || fed >= max_insts) {
                        src_done = true;
                        break;
                    }
                    if (!src.next(pending)) {
                        src_done = true;
                        break;
                    }
                    ++fed;
                    pending_valid = true;
                }
                const std::uint64_t blk = pending.pc & line_mask;
                if (blk != cur_fetch_block) {
                    const std::uint64_t done =
                        hier.timedFetch(now, pending.pc);
                    cur_fetch_block = blk;
                    if (done > now + hier.il1().params().hitLatency) {
                        // I-cache miss: group arrives with the line.
                        fetch_blocked_until = done;
                        break;
                    }
                }
                Fetched &fe = fetchBuf.push();
                fe.d = pending;
                fe.availCycle = now + params_.frontendDelay;
                fe.mispredicted = false;
                bool stop = false;
                if (pending.isBranch()) {
                    const BranchKind kind = pending.inst.branchKind();
                    const branch::Prediction p =
                        bp.predict(pending.pc, kind);
                    if (kind == BranchKind::Conditional)
                        ++res.condBranches;
                    fe.mispredicted = isMispredict(p, pending);
                    if (fe.mispredicted) {
                        ++res.branchMispredicts;
                        waiting_branch = pending.seq;
                        stop = true;
                    } else if (pending.taken) {
                        // Correctly predicted taken: redirect ends the
                        // fetch group; next group starts at the target.
                        cur_fetch_block = ~std::uint64_t{0};
                        stop = true;
                    }
                }
                pending_valid = false;
                ++fetched;
                if (stop)
                    break;
            }
        }

        // ------------------------------------------------- advance clock
        const bool fetch_blocked =
            (now < fetch_blocked_until || waiting_branch != noSeq) &&
            (pending_valid || (!src_done && fed < max_insts));
        const bool progressed = resolved_n || committed || issued_n ||
                                dispatched || fetched;
        if (progressed) {
            res.dispatchStallCycles += dispatch_stalled ? 1 : 0;
            res.fetchBlockedCycles += fetch_blocked ? 1 : 0;
            ++now;
            continue;
        }
        // Nothing moved, so the issue pass visited every ready entry:
        // jump to the first cycle at which something can.
        std::uint64_t next = ~std::uint64_t{0};
        completion.forEachRun([&](const std::uint64_t *c, std::size_t n) {
            // An unissued entry's 0 is never later than now.
            for (std::size_t i = 0; i < n; ++i)
                next = std::min(next, c[i] > now ? c[i] : ~std::uint64_t{0});
        });
        for (const std::uint64_t seq : ready) {
            const Flight &f = rob[seq - rob.front().d.seq];
            if (f.readyBase > now)
                next = std::min(next, f.readyBase);
        }
        if (!fetchBuf.empty() && fetchBuf.front().availCycle > now)
            next = std::min(next, fetchBuf.front().availCycle);
        if (waiting_branch == noSeq && fetch_blocked_until > now &&
            (pending_valid || (!src_done && fed < max_insts)))
            next = std::min(next, fetch_blocked_until);
        const std::uint64_t new_now =
            next == ~std::uint64_t{0} ? now + 1 : next;
        const std::uint64_t delta = new_now - now;
        res.dispatchStallCycles += dispatch_stalled ? delta : 0;
        res.fetchBlockedCycles += fetch_blocked ? delta : 0;
        now = new_now;
    }

    res.cycles = now;
    return res;
}

} // namespace rsr::uarch
