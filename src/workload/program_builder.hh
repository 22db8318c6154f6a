/**
 * @file
 * A small label-based assembler for constructing Program images in the
 * synthetic ISA. Forward references are supported through fixups that are
 * resolved at build() time. The builder also owns a bump allocator for
 * initialized data segments.
 */

#ifndef RSR_WORKLOAD_PROGRAM_BUILDER_HH
#define RSR_WORKLOAD_PROGRAM_BUILDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "func/program.hh"
#include "isa/inst.hh"

namespace rsr::workload
{

/** Opaque label handle. */
struct Label
{
    std::uint32_t id = ~0u;
    bool valid() const { return id != ~0u; }
};

/** Incremental program assembler. */
class ProgramBuilder
{
  public:
    explicit ProgramBuilder(std::uint64_t code_base = 0x10000,
                            std::uint64_t data_base = 0x1000000);

    // --- labels -----------------------------------------------------------

    /** Create a fresh unbound label. */
    Label newLabel();

    /** Bind @p label to the current code position. */
    void bind(Label label);

    /** Create a label already bound to the current position. */
    Label here();

    /** Address a label will have (only valid once bound and built). */
    std::uint64_t addressOf(Label label) const;

    // --- raw emission -----------------------------------------------------

    /** Append a fully formed instruction; returns its address. */
    std::uint64_t emit(const isa::Inst &inst);

    /** Current code position (address of the next instruction). */
    std::uint64_t pos() const { return codeBase + 4 * insts.size(); }

    // --- convenience emitters ----------------------------------------------

    void nop();
    void halt();
    void rtype(isa::Opcode op, unsigned rd, unsigned rs1, unsigned rs2);
    void itype(isa::Opcode op, unsigned rd, unsigned rs1, std::int32_t imm);
    void addi(unsigned rd, unsigned rs1, std::int32_t imm);
    void lui(unsigned rd, std::int32_t imm);
    /** Load an arbitrary 64-bit constant using lui/ori/slli sequences. */
    void loadImm64(unsigned rd, std::uint64_t value);
    void load(isa::Opcode op, unsigned rd, unsigned base, std::int32_t off);
    void store(isa::Opcode op, unsigned src, unsigned base,
               std::int32_t off);
    void branch(isa::Opcode op, unsigned rs1, unsigned rs2, Label target);
    void jump(Label target);
    /** Direct call linking into the return-address register. */
    void call(Label target);
    /** Return through the link register. */
    void ret();
    /** Indirect call through @p rs1, linking into ra. */
    void callReg(unsigned rs1);

    // --- data segments ------------------------------------------------------

    /** Reserve @p bytes of zeroed data; returns its base address. */
    std::uint64_t allocData(std::uint64_t bytes, std::uint64_t align = 64);

    /** Write a little-endian value into a previously allocated region. */
    void pokeData(std::uint64_t addr, std::uint64_t value, unsigned bytes);

    // --- finalize -----------------------------------------------------------

    /** Resolve fixups and produce the program image. */
    func::Program build(std::string name, Label entry = Label{});

  private:
    struct Fixup
    {
        std::size_t instIndex;
        std::uint32_t labelId;
    };

    std::uint64_t codeBase;
    std::uint64_t dataBase;
    std::uint64_t dataCursor;
    std::vector<isa::Inst> insts;
    std::vector<std::uint64_t> labelAddrs; ///< ~0ull while unbound
    std::vector<Fixup> fixups;
    std::vector<func::DataSegment> dataSegs;
};

} // namespace rsr::workload

#endif // RSR_WORKLOAD_PROGRAM_BUILDER_HH
