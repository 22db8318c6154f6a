/**
 * @file
 * Build a custom program with the ProgramBuilder API (a blocked
 * matrix-multiply-like kernel with a pointer-chased index structure),
 * then sample it with Reverse State Reconstruction. Demonstrates using
 * the library on workloads beyond the nine standard profiles.
 *
 * The kernel is also chosen to demonstrate the warm-up percentage knob:
 * its working set sits near the L2 capacity, so the most recent 20% of a
 * skip region's references do not cover the cache and R$BP (20%) barely
 * improves on no warm-up — while R$BP (100%) matches SMARTS exactly at a
 * fraction of the updates. The paper's 20% result assumes skip regions
 * whose reference count covers the cache many times over (true for its
 * 6-billion-instruction populations, and for the nine standard profiles
 * at this repository's scale).
 */

#include <cstdio>
#include <vector>

#include "core/sampled_sim.hh"
#include "core/warmup.hh"
#include "workload/program_builder.hh"

using namespace rsr;
using isa::Opcode;
using workload::Label;
using workload::ProgramBuilder;

namespace
{

/** A two-phase kernel: dense strided sweeps plus a chase over an index. */
func::Program
buildKernel()
{
    ProgramBuilder b;

    constexpr std::uint64_t matBytes = 256 * 1024;
    constexpr std::uint64_t nodes = 256;
    const std::uint64_t mat = b.allocData(matBytes);
    const std::uint64_t chain = b.allocData(nodes * 64);
    // Singly linked ring through the chain region, stride 3 nodes so
    // neighbouring iterations touch distant lines.
    for (std::uint64_t i = 0; i < nodes; ++i)
        b.pokeData(chain + i * 64, chain + ((i * 3 + 1) % nodes) * 64, 8);

    Label entry = b.newLabel();
    b.bind(entry);
    b.loadImm64(8, mat);             // matrix base
    b.loadImm64(9, chain);           // chase cursor
    b.loadImm64(10, matBytes - 8);   // index mask
    b.addi(11, 0, 0);                // stream index

    Label outer = b.here();

    // Phase 1: strided accumulation over the matrix (cache friendly).
    b.addi(14, 0, 32);
    Label sweep = b.here();
    b.rtype(Opcode::Add, 27, 8, 11);
    b.load(Opcode::Ld, 16, 27, 0);
    b.rtype(Opcode::Add, 17, 17, 16);
    b.store(Opcode::Sd, 17, 27, 0);
    b.addi(11, 11, 64);
    b.rtype(Opcode::And, 11, 11, 10);
    b.addi(14, 14, -1);
    b.branch(Opcode::Bne, 14, 0, sweep);

    // Phase 2: pointer chase with a data-dependent branch.
    b.addi(14, 0, 8);
    Label chase = b.here();
    b.load(Opcode::Ld, 9, 9, 0);
    b.itype(Opcode::Andi, 28, 9, 0x40);
    Label skip = b.newLabel();
    b.branch(Opcode::Beq, 28, 0, skip);
    b.rtype(Opcode::Mul, 18, 18, 16);
    b.rtype(Opcode::Xor, 18, 18, 17);
    b.bind(skip);
    b.addi(14, 14, -1);
    b.branch(Opcode::Bne, 14, 0, chase);

    b.jump(outer);
    return b.build("custom-kernel", entry);
}

} // namespace

int
main()
{
    const auto program = buildKernel();
    std::printf("custom kernel: %zu static instructions\n",
                program.code.size());

    core::SampledConfig cfg;
    cfg.totalInsts = 2'000'000;
    cfg.regimen = {50, 2000};
    cfg.machine = core::MachineConfig::scaledDefault();

    const double true_ipc =
        core::runFull(program, cfg.totalInsts, cfg.machine).ipc();
    std::printf("true IPC = %.4f\n\n", true_ipc);

    auto none = core::makePolicyByName("none");
    auto smarts = core::makePolicyByName("smarts");
    auto rsr20 = core::makePolicyByName("rsr20");
    auto rsr100 = core::makePolicyByName("rsr100");
    for (core::WarmupPolicy *policy :
         std::vector<core::WarmupPolicy *>{none.get(), smarts.get(),
                                           rsr20.get(), rsr100.get()}) {
        const auto r = core::runSampled(program, *policy, cfg);
        std::printf("%-12s IPC %.4f  RE %5.2f%%  CI %s  %.3fs  "
                    "updates %llu\n",
                    policy->name().c_str(), r.estimate.mean,
                    100 * r.estimate.relativeError(true_ipc),
                    r.estimate.passesCi(true_ipc) ? "pass" : "fail",
                    r.seconds,
                    static_cast<unsigned long long>(
                        r.warmWork.totalUpdates()));
    }
    return 0;
}
