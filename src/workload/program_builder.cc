#include "program_builder.hh"

#include "util/logging.hh"

namespace rsr::workload
{

using isa::Inst;
using isa::Opcode;

namespace
{
constexpr std::uint64_t unbound = ~std::uint64_t{0};
}

ProgramBuilder::ProgramBuilder(std::uint64_t code_base,
                               std::uint64_t data_base)
    : codeBase(code_base), dataBase(data_base), dataCursor(data_base)
{
    rsr_assert((code_base & 3) == 0, "code base must be word aligned");
}

Label
ProgramBuilder::newLabel()
{
    labelAddrs.push_back(unbound);
    return Label{static_cast<std::uint32_t>(labelAddrs.size() - 1)};
}

void
ProgramBuilder::bind(Label label)
{
    rsr_assert(label.valid() && label.id < labelAddrs.size(), "bad label");
    rsr_assert(labelAddrs[label.id] == unbound, "label bound twice");
    labelAddrs[label.id] = pos();
}

Label
ProgramBuilder::here()
{
    Label l = newLabel();
    bind(l);
    return l;
}

std::uint64_t
ProgramBuilder::addressOf(Label label) const
{
    rsr_assert(label.valid() && label.id < labelAddrs.size(), "bad label");
    rsr_assert(labelAddrs[label.id] != unbound, "label not bound");
    return labelAddrs[label.id];
}

std::uint64_t
ProgramBuilder::emit(const Inst &inst)
{
    const std::uint64_t addr = pos();
    insts.push_back(inst);
    return addr;
}

void
ProgramBuilder::nop()
{
    emit(Inst{});
}

void
ProgramBuilder::halt()
{
    Inst in;
    in.op = Opcode::Halt;
    emit(in);
}

void
ProgramBuilder::rtype(Opcode op, unsigned rd, unsigned rs1, unsigned rs2)
{
    Inst in;
    in.op = op;
    in.rd = static_cast<std::uint8_t>(rd);
    in.rs1 = static_cast<std::uint8_t>(rs1);
    in.rs2 = static_cast<std::uint8_t>(rs2);
    emit(in);
}

void
ProgramBuilder::itype(Opcode op, unsigned rd, unsigned rs1, std::int32_t imm)
{
    Inst in;
    in.op = op;
    in.rd = static_cast<std::uint8_t>(rd);
    in.rs1 = static_cast<std::uint8_t>(rs1);
    in.imm = imm;
    emit(in);
}

void
ProgramBuilder::addi(unsigned rd, unsigned rs1, std::int32_t imm)
{
    itype(Opcode::Addi, rd, rs1, imm);
}

void
ProgramBuilder::lui(unsigned rd, std::int32_t imm)
{
    itype(Opcode::Lui, rd, 0, imm);
}

void
ProgramBuilder::loadImm64(unsigned rd, std::uint64_t value)
{
    // Assemble from 15-bit chunks so every intermediate immediate stays
    // non-negative (ori/addi immediates are sign-extended).
    if (value <= 0x7fff) {
        addi(rd, 0, static_cast<std::int32_t>(value));
        return;
    }
    addi(rd, 0, static_cast<std::int32_t>((value >> 60) & 0xf));
    for (int shift = 45; shift >= 0; shift -= 15) {
        itype(Opcode::Slli, rd, rd, 15);
        const auto chunk = static_cast<std::int32_t>((value >> shift) & 0x7fff);
        if (chunk)
            itype(Opcode::Ori, rd, rd, chunk);
    }
}

void
ProgramBuilder::load(Opcode op, unsigned rd, unsigned base, std::int32_t off)
{
    rsr_assert(isa::opcodeIsLoad(op), "not a load opcode");
    itype(op, rd, base, off);
}

void
ProgramBuilder::store(Opcode op, unsigned src, unsigned base,
                      std::int32_t off)
{
    rsr_assert(isa::opcodeIsStore(op), "not a store opcode");
    Inst in;
    in.op = op;
    in.rs1 = static_cast<std::uint8_t>(base);
    in.rs2 = static_cast<std::uint8_t>(src);
    in.imm = off;
    emit(in);
}

void
ProgramBuilder::branch(Opcode op, unsigned rs1, unsigned rs2, Label target)
{
    rsr_assert(isa::opcodeFormat(op) == isa::Format::B, "not a branch");
    Inst in;
    in.op = op;
    in.rs1 = static_cast<std::uint8_t>(rs1);
    in.rs2 = static_cast<std::uint8_t>(rs2);
    fixups.push_back({insts.size(), target.id});
    emit(in);
}

void
ProgramBuilder::jump(Label target)
{
    Inst in;
    in.op = Opcode::J;
    fixups.push_back({insts.size(), target.id});
    emit(in);
}

void
ProgramBuilder::call(Label target)
{
    Inst in;
    in.op = Opcode::Jal;
    in.rd = isa::regRa;
    fixups.push_back({insts.size(), target.id});
    emit(in);
}

void
ProgramBuilder::ret()
{
    Inst in;
    in.op = Opcode::Jalr;
    in.rd = 0;
    in.rs1 = isa::regRa;
    emit(in);
}

void
ProgramBuilder::callReg(unsigned rs1)
{
    Inst in;
    in.op = Opcode::Jalr;
    in.rd = isa::regRa;
    in.rs1 = static_cast<std::uint8_t>(rs1);
    emit(in);
}

std::uint64_t
ProgramBuilder::allocData(std::uint64_t bytes, std::uint64_t align)
{
    rsr_assert(align && (align & (align - 1)) == 0,
               "alignment must be a power of two");
    dataCursor = (dataCursor + align - 1) & ~(align - 1);
    const std::uint64_t base = dataCursor;
    dataCursor += bytes;
    dataSegs.push_back({base, std::vector<std::uint8_t>(bytes, 0)});
    return base;
}

void
ProgramBuilder::pokeData(std::uint64_t addr, std::uint64_t value,
                         unsigned bytes)
{
    for (auto &seg : dataSegs) {
        if (addr >= seg.base && addr + bytes <= seg.base + seg.bytes.size()) {
            for (unsigned i = 0; i < bytes; ++i)
                seg.bytes[addr - seg.base + i] =
                    static_cast<std::uint8_t>(value >> (8 * i));
            return;
        }
    }
    rsr_throw_internal("pokeData outside any allocated segment: addr=", addr);
}

func::Program
ProgramBuilder::build(std::string name, Label entry)
{
    for (const auto &fix : fixups) {
        rsr_assert(fix.labelId < labelAddrs.size(), "bad fixup label");
        const std::uint64_t target = labelAddrs[fix.labelId];
        rsr_assert(target != unbound, "unbound label referenced");
        const std::uint64_t branch_pc = codeBase + 4 * fix.instIndex;
        const std::int64_t delta =
            (static_cast<std::int64_t>(target) -
             static_cast<std::int64_t>(branch_pc + 4)) >> 2;
        insts[fix.instIndex].imm = static_cast<std::int32_t>(delta);
    }

    func::Program prog;
    prog.name = std::move(name);
    prog.codeBase = codeBase;
    prog.entry = entry.valid() ? addressOf(entry) : codeBase;
    prog.data = dataSegs;
    prog.code.reserve(insts.size());
    for (const auto &in : insts)
        prog.code.push_back(isa::encode(in));
    return prog;
}

} // namespace rsr::workload
