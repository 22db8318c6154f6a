/**
 * @file
 * The functional (architectural) simulator. It executes a Program exactly
 * — registers, memory, and control flow — and emits DynInst records that
 * drive the timing model, the warm-up policies, and the skip-region log.
 *
 * In the paper's framework the functional simulator has two jobs: it keeps
 * architectural state valid while instructions are skipped (cold/warm
 * phases), and its register values seed the timing simulator at each
 * cluster boundary. This implementation is functional-first: the timing
 * model consumes the committed dynamic stream, so architectural state is
 * always owned here.
 */

#ifndef RSR_FUNC_FUNCSIM_HH
#define RSR_FUNC_FUNCSIM_HH

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "func/dyninst.hh"
#include "func/program.hh"
#include "mem/memory.hh"
#include "util/bitutil.hh"
#include "util/error.hh"

namespace rsr::func
{

/** Architectural register and PC state. */
struct ArchState
{
    std::uint64_t pc = 0;
    std::array<std::uint64_t, isa::numRegs> regs{};
    std::array<double, isa::numRegs> fregs{};
};

/** Execution-driven functional simulator. */
class FuncSim
{
  public:
    /** Load @p program and reset architectural state. */
    explicit FuncSim(const Program &program);

    /** Re-load the program image and reset all state. */
    void reset();

    /**
     * Execute one instruction.
     *
     * @param out If non-null, filled with the committed record.
     * @return false once the program has halted (the halt instruction
     *         itself is not reported).
     *
     * Defined inline below: this is the innermost loop of functional
     * skipping, and together with the pre-decoded instruction cache it
     * keeps the per-instruction work at one table-indexed dispatch plus
     * the semantic action. Always inlined: left to its heuristics, GCC
     * calls it out of line from some skip loops (PERFORMANCE.md).
     */
    [[gnu::always_inline]] bool step(DynInst *out = nullptr);

    /** Run at most @p n instructions; returns the number executed. */
    std::uint64_t run(std::uint64_t n);

    bool halted() const { return isHalted; }
    std::uint64_t instCount() const { return icount; }
    std::uint64_t pc() const { return state_.pc; }

    const ArchState &state() const { return state_; }
    ArchState &state() { return state_; }
    const mem::Memory &memory() const { return mem_; }
    mem::Memory &memory() { return mem_; }

    /** Read an integer register (r0 reads as zero). */
    std::uint64_t reg(unsigned idx) const { return state_.regs[idx]; }
    /** Read an FP register. */
    double freg(unsigned idx) const { return state_.fregs[idx]; }

  private:
    /**
     * Static-instruction cache lookup: the code segment is decoded once
     * at load time into `decoded`, so a dynamic instruction costs one
     * bounds check and an indexed load — never a re-decode. PCs outside
     * the code segment (or misaligned) resolve to a halt.
     */
    const isa::Inst *
    fetchDecoded(std::uint64_t pc) const
    {
        if (pc >= program.codeBase && pc < program.codeEnd() &&
            (pc & 3) == 0)
            return &decoded[(pc - program.codeBase) >> 2];
        return &haltInst;
    }

    void
    writeReg(unsigned idx, std::uint64_t value)
    {
        if (idx != 0)
            state_.regs[idx] = value;
    }

    const Program &program;
    /** Pre-decoded code segment, indexed by (pc - codeBase) / 4. */
    std::vector<isa::Inst> decoded;
    ArchState state_;
    mem::Memory mem_;
    std::uint64_t icount = 0;
    bool isHalted = false;
    isa::Inst haltInst;
};

inline bool
FuncSim::step(DynInst *out)
{
    if (isHalted)
        return false;

    const std::uint64_t pc = state_.pc;
    const isa::Inst &in = *fetchDecoded(pc);
    auto &r = state_.regs;
    auto &f = state_.fregs;

    std::uint64_t next_pc = pc + 4;
    std::uint64_t eff_addr = 0;

    const auto s1 = r[in.rs1];
    const auto s2 = r[in.rs2];
    const auto simm = static_cast<std::int64_t>(in.imm);

    using isa::Opcode;
    switch (in.op) {
      case Opcode::Nop:
        break;
      case Opcode::Halt:
        isHalted = true;
        return false;

      case Opcode::Add: writeReg(in.rd, s1 + s2); break;
      case Opcode::Sub: writeReg(in.rd, s1 - s2); break;
      case Opcode::And: writeReg(in.rd, s1 & s2); break;
      case Opcode::Or: writeReg(in.rd, s1 | s2); break;
      case Opcode::Xor: writeReg(in.rd, s1 ^ s2); break;
      case Opcode::Sll: writeReg(in.rd, s1 << (s2 & 63)); break;
      case Opcode::Srl: writeReg(in.rd, s1 >> (s2 & 63)); break;
      case Opcode::Sra:
        writeReg(in.rd, static_cast<std::uint64_t>(
                            static_cast<std::int64_t>(s1) >> (s2 & 63)));
        break;
      case Opcode::Slt:
        writeReg(in.rd, static_cast<std::int64_t>(s1) <
                                static_cast<std::int64_t>(s2)
                            ? 1
                            : 0);
        break;
      case Opcode::Sltu: writeReg(in.rd, s1 < s2 ? 1 : 0); break;
      case Opcode::Mul: writeReg(in.rd, s1 * s2); break;
      case Opcode::Div:
        writeReg(in.rd, s2 == 0 ? ~std::uint64_t{0} : s1 / s2);
        break;

      case Opcode::Addi: writeReg(in.rd, s1 + simm); break;
      case Opcode::Andi:
        writeReg(in.rd, s1 & static_cast<std::uint64_t>(simm));
        break;
      case Opcode::Ori:
        writeReg(in.rd, s1 | static_cast<std::uint64_t>(simm));
        break;
      case Opcode::Xori:
        writeReg(in.rd, s1 ^ static_cast<std::uint64_t>(simm));
        break;
      case Opcode::Slti:
        writeReg(in.rd, static_cast<std::int64_t>(s1) < simm ? 1 : 0);
        break;
      case Opcode::Slli: writeReg(in.rd, s1 << (in.imm & 63)); break;
      case Opcode::Srli: writeReg(in.rd, s1 >> (in.imm & 63)); break;
      case Opcode::Lui:
        writeReg(in.rd, static_cast<std::uint64_t>(simm << 16));
        break;

      case Opcode::Lb:
        eff_addr = s1 + simm;
        writeReg(in.rd, static_cast<std::uint64_t>(
                            signExtend(mem_.read(eff_addr, 1), 8)));
        break;
      case Opcode::Lh:
        eff_addr = s1 + simm;
        writeReg(in.rd, static_cast<std::uint64_t>(
                            signExtend(mem_.read(eff_addr, 2), 16)));
        break;
      case Opcode::Lw:
        eff_addr = s1 + simm;
        writeReg(in.rd, static_cast<std::uint64_t>(
                            signExtend(mem_.read(eff_addr, 4), 32)));
        break;
      case Opcode::Ld:
        eff_addr = s1 + simm;
        writeReg(in.rd, mem_.read(eff_addr, 8));
        break;

      case Opcode::Sb:
        eff_addr = s1 + simm;
        mem_.write(eff_addr, s2, 1);
        break;
      case Opcode::Sh:
        eff_addr = s1 + simm;
        mem_.write(eff_addr, s2, 2);
        break;
      case Opcode::Sw:
        eff_addr = s1 + simm;
        mem_.write(eff_addr, s2, 4);
        break;
      case Opcode::Sd:
        eff_addr = s1 + simm;
        mem_.write(eff_addr, s2, 8);
        break;

      case Opcode::Fadd: f[in.rd] = f[in.rs1] + f[in.rs2]; break;
      case Opcode::Fsub: f[in.rd] = f[in.rs1] - f[in.rs2]; break;
      case Opcode::Fmul: f[in.rd] = f[in.rs1] * f[in.rs2]; break;
      case Opcode::Fdiv:
        f[in.rd] = f[in.rs2] == 0.0 ? 0.0 : f[in.rs1] / f[in.rs2];
        break;
      case Opcode::Fcmplt:
        writeReg(in.rd, f[in.rs1] < f[in.rs2] ? 1 : 0);
        break;
      case Opcode::Fcvt:
        f[in.rd] = static_cast<double>(static_cast<std::int64_t>(s1));
        break;

      case Opcode::Fld:
        eff_addr = s1 + simm;
        f[in.rd] = std::bit_cast<double>(mem_.read(eff_addr, 8));
        break;
      case Opcode::Fsd:
        eff_addr = s1 + simm;
        mem_.write(eff_addr, std::bit_cast<std::uint64_t>(f[in.rs2]), 8);
        break;

      case Opcode::Beq:
        if (s1 == s2)
            next_pc = pc + 4 + (simm << 2);
        break;
      case Opcode::Bne:
        if (s1 != s2)
            next_pc = pc + 4 + (simm << 2);
        break;
      case Opcode::Blt:
        if (static_cast<std::int64_t>(s1) < static_cast<std::int64_t>(s2))
            next_pc = pc + 4 + (simm << 2);
        break;
      case Opcode::Bge:
        if (static_cast<std::int64_t>(s1) >= static_cast<std::int64_t>(s2))
            next_pc = pc + 4 + (simm << 2);
        break;

      case Opcode::J:
        next_pc = pc + 4 + (simm << 2);
        break;
      case Opcode::Jal:
        writeReg(in.rd, pc + 4);
        next_pc = pc + 4 + (simm << 2);
        break;
      case Opcode::Jalr:
        next_pc = s1 & ~std::uint64_t{3};
        writeReg(in.rd, pc + 4);
        break;

      default:
        rsr_throw_internal("unhandled opcode in executor");
    }

    state_.pc = next_pc;

    if (out) {
        out->seq = icount;
        out->pc = pc;
        out->nextPc = next_pc;
        out->effAddr = eff_addr;
        out->inst = in;
        out->taken = next_pc != pc + 4;
    }
    ++icount;
    return true;
}

} // namespace rsr::func

#endif // RSR_FUNC_FUNCSIM_HH
