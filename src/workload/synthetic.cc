#include "synthetic.hh"

#include <algorithm>

#include "util/bitutil.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workload/program_builder.hh"

namespace rsr::workload
{

using isa::Opcode;

namespace
{

// Register roles used by generated code.
constexpr unsigned rLcgA = 4;       ///< LCG multiplier constant
constexpr unsigned rLcgC = 5;       ///< LCG increment constant
constexpr unsigned rLcg = 6;        ///< LCG state
constexpr unsigned rT0 = 7;         ///< LCG output / scratch
constexpr unsigned rStreamBase = 8;
constexpr unsigned rBiasBase = 9;
constexpr unsigned rChase = 10;     ///< pointer-chase cursor
constexpr unsigned rStreamIdx = 11;
constexpr unsigned rSel = 12;       ///< dispatch selector
constexpr unsigned rInner = 14;     ///< inner-loop counter
constexpr unsigned rDepth = 15;     ///< recursion depth counter
constexpr unsigned aluPoolLo = 16;  ///< r16..r23 hold live ALU values
constexpr unsigned aluPoolHi = 23;
constexpr unsigned rBiasMask = 24;
constexpr unsigned rStreamMask = 25;
constexpr unsigned rTableBase = 26;
constexpr unsigned rA0 = 27;        ///< address temp
constexpr unsigned rA1 = 28;        ///< data temp
constexpr unsigned fPoolLo = 1;     ///< f1..f6 hold live FP values
constexpr unsigned fPoolHi = 6;

constexpr std::uint64_t lcgA = 6364136223846793005ull;
constexpr std::uint64_t lcgC = 1442695040888963407ull;

constexpr unsigned chaseNodeBytes = 64;

/** Emits one synthetic program; a thin state bundle around ProgramBuilder. */
class Generator
{
  public:
    explicit Generator(const WorkloadParams &params)
        : p(params), rng(params.seed * 0x9e3779b97f4a7c15ull + 0xabcdu)
    {}

    func::Program
    build()
    {
        validate();
        allocateData();

        entry = b.newLabel();
        funcLabels.resize(numFuncsPow2());
        for (auto &l : funcLabels)
            l = b.newLabel();
        recHelper = b.newLabel();

        emitEntry();
        emitFunctions();
        if (p.recursionDepth > 0)
            emitRecHelper();
        fillDispatchTable();
        return b.build(p.name, entry);
    }

  private:
    unsigned
    numFuncsPow2() const
    {
        unsigned v = 1;
        while (v < p.numFuncs)
            v <<= 1;
        return v;
    }

    void
    validate() const
    {
        rsr_assert(isPowerOf2(p.streamBytes) && p.streamBytes >= 4096,
                   p.name, ": streamBytes must be a power of two >= 4K");
        rsr_assert(isPowerOf2(p.biasBytes), "biasBytes must be a power of 2");
        rsr_assert(p.chaseBytes == 0 ||
                       (isPowerOf2(p.chaseBytes) &&
                        p.chaseBytes >= 2 * chaseNodeBytes),
                   "chaseBytes must be 0 or a power of two >= 128");
        rsr_assert(p.strideBytes % 8 == 0 && p.strideBytes > 0,
                   "strideBytes must be a positive multiple of 8");
        rsr_assert(p.numFuncs >= 1 && p.numFuncs <= 128, "numFuncs range");
    }

    void
    allocateData()
    {
        streamBase = b.allocData(p.streamBytes, 64);
        // Fill the stream region with LCG noise so loaded values vary.
        {
            Rng r = rng.fork();
            for (std::uint64_t off = 0; off < p.streamBytes; off += 8)
                b.pokeData(streamBase + off, r.next(), 8);
        }

        biasBase = b.allocData(p.biasBytes, 64);
        {
            Rng r = rng.fork();
            for (std::uint64_t off = 0; off < p.biasBytes; ++off)
                b.pokeData(biasBase + off, r.chance(p.branchBias) ? 1 : 0, 1);
        }

        if (p.chaseBytes) {
            chaseBase = b.allocData(p.chaseBytes, 64);
            const std::uint64_t n = p.chaseBytes / chaseNodeBytes;
            std::vector<std::uint32_t> order(n);
            for (std::uint64_t i = 0; i < n; ++i)
                order[i] = static_cast<std::uint32_t>(i);
            Rng r = rng.fork();
            for (std::uint64_t i = n - 1; i > 0; --i)
                std::swap(order[i], order[r.below(i + 1)]);
            // Single random cycle: node order[i] points at node order[i+1].
            for (std::uint64_t i = 0; i < n; ++i) {
                const std::uint64_t from = order[i];
                const std::uint64_t to = order[(i + 1) % n];
                b.pokeData(chaseBase + from * chaseNodeBytes,
                           chaseBase + to * chaseNodeBytes, 8);
            }
        }

        if (p.indirectDispatch)
            tableBase = b.allocData(numFuncsPow2() * 8, 64);
    }

    void
    emitLcgNext()
    {
        b.rtype(Opcode::Mul, rLcg, rLcg, rLcgA);
        b.rtype(Opcode::Add, rLcg, rLcg, rLcgC);
        b.itype(Opcode::Srli, rT0, rLcg, 29);
    }

    void
    emitEntry()
    {
        b.bind(entry);
        b.loadImm64(rLcgA, lcgA);
        b.loadImm64(rLcgC, lcgC);
        b.loadImm64(rLcg, p.seed | 1);
        b.loadImm64(rStreamBase, streamBase);
        b.loadImm64(rBiasBase, biasBase);
        b.loadImm64(rStreamMask, (p.streamBytes - 1) & ~std::uint64_t{7});
        b.loadImm64(rBiasMask, p.biasBytes - 1);
        if (p.chaseBytes)
            b.loadImm64(rChase, chaseBase);
        if (p.indirectDispatch)
            b.loadImm64(rTableBase, tableBase);
        b.addi(rStreamIdx, 0, 0);
        for (unsigned r = aluPoolLo; r <= aluPoolHi; ++r)
            b.addi(r, 0, static_cast<std::int32_t>(3 * r + 1));
        for (unsigned f = fPoolLo; f <= fPoolHi; ++f)
            b.rtype(Opcode::Fcvt, f, aluPoolLo + (f % 8), 0);

        Label outer = b.here();
        emitLcgNext();
        b.itype(Opcode::Andi, rSel, rT0,
                static_cast<std::int32_t>(numFuncsPow2() - 1));
        if (p.indirectDispatch) {
            b.itype(Opcode::Slli, rSel, rSel, 3);
            b.rtype(Opcode::Add, rSel, rSel, rTableBase);
            b.load(Opcode::Ld, rSel, rSel, 0);
            b.callReg(rSel);
        } else {
            // Compare-chain dispatch: mostly-not-taken conditionals ending
            // in direct calls.
            Label done = b.newLabel();
            const unsigned n = numFuncsPow2();
            for (unsigned k = 0; k < n; ++k) {
                if (k + 1 < n) {
                    Label next = b.newLabel();
                    b.addi(rA0, 0, static_cast<std::int32_t>(k));
                    b.branch(Opcode::Bne, rSel, rA0, next);
                    b.call(funcLabels[k]);
                    b.jump(done);
                    b.bind(next);
                } else {
                    b.call(funcLabels[k]);
                }
            }
            b.bind(done);
        }
        b.jump(outer);
    }

    void
    emitAluOp()
    {
        if (rng.chance(p.fpFrac)) {
            const unsigned fd = fPoolLo + unsigned(rng.below(fPoolHi - fPoolLo + 1));
            const unsigned fa = fPoolLo + unsigned(rng.below(fPoolHi - fPoolLo + 1));
            const unsigned fb = fPoolLo + unsigned(rng.below(fPoolHi - fPoolLo + 1));
            const double roll = rng.uniform();
            Opcode op = roll < 0.45   ? Opcode::Fadd
                        : roll < 0.65 ? Opcode::Fsub
                        : roll < 0.9  ? Opcode::Fmul
                                      : Opcode::Fdiv;
            b.rtype(op, fd, fa, fb);
            return;
        }
        const unsigned rd = aluPoolLo + unsigned(rng.below(aluPoolHi - aluPoolLo + 1));
        const unsigned ra = aluPoolLo + unsigned(rng.below(aluPoolHi - aluPoolLo + 1));
        const unsigned rb = aluPoolLo + unsigned(rng.below(aluPoolHi - aluPoolLo + 1));
        if (rng.chance(p.mulFrac)) {
            b.rtype(Opcode::Mul, rd, ra, rb);
            return;
        }
        if (rng.chance(p.divFrac)) {
            b.rtype(Opcode::Div, rd, ra, rb);
            return;
        }
        static constexpr Opcode simple[] = {Opcode::Add, Opcode::Sub,
                                            Opcode::Xor, Opcode::And,
                                            Opcode::Or, Opcode::Slt};
        b.rtype(simple[rng.below(std::size(simple))], rd, ra, rb);
    }

    void
    emitMemOp()
    {
        if (p.chaseBytes && rng.chance(p.chaseFrac)) {
            b.load(Opcode::Ld, rChase, rChase, 0);
            return;
        }
        if (rng.chance(p.randomAccessFrac)) {
            emitLcgNext();
            b.rtype(Opcode::And, rA0, rT0, rStreamMask);
            b.rtype(Opcode::Add, rA0, rA0, rStreamBase);
        } else {
            b.rtype(Opcode::Add, rA0, rStreamBase, rStreamIdx);
            b.addi(rStreamIdx, rStreamIdx,
                   static_cast<std::int32_t>(p.strideBytes));
            b.rtype(Opcode::And, rStreamIdx, rStreamIdx, rStreamMask);
        }
        const bool fp = rng.chance(p.fpFrac);
        if (rng.chance(p.storeFrac)) {
            if (fp) {
                const unsigned fs = fPoolLo + unsigned(rng.below(fPoolHi - fPoolLo + 1));
                b.store(Opcode::Fsd, fs, rA0, 0);
            } else {
                const unsigned rs = aluPoolLo + unsigned(rng.below(aluPoolHi - aluPoolLo + 1));
                b.store(Opcode::Sd, rs, rA0, 0);
            }
        } else {
            if (fp) {
                const unsigned fd = fPoolLo + unsigned(rng.below(fPoolHi - fPoolLo + 1));
                b.load(Opcode::Fld, fd, rA0, 0);
            } else {
                const unsigned rd = aluPoolLo + unsigned(rng.below(aluPoolHi - aluPoolLo + 1));
                b.load(Opcode::Ld, rd, rA0, 0);
            }
        }
    }

    void
    emitDataDependentBranch()
    {
        emitLcgNext();
        b.rtype(Opcode::And, rA0, rT0, rBiasMask);
        b.rtype(Opcode::Add, rA0, rA0, rBiasBase);
        b.load(Opcode::Lb, rA1, rA0, 0);
        Label skip = b.newLabel();
        b.branch(Opcode::Bne, rA1, 0, skip);
        const unsigned filler = 2 + unsigned(rng.below(3));
        for (unsigned i = 0; i < filler; ++i)
            emitAluOp();
        b.bind(skip);
    }

    void
    emitBlock()
    {
        // Interleave compute and memory so the OoO window sees mixed
        // dependence chains rather than separated bursts.
        unsigned alu = p.aluOpsPerBlock;
        unsigned mem = p.memOpsPerBlock;
        while (alu || mem) {
            if (alu) {
                emitAluOp();
                --alu;
            }
            if (mem) {
                emitMemOp();
                --mem;
            }
        }
        for (unsigned i = 0; i < p.ddBranchesPerBlock; ++i)
            emitDataDependentBranch();
    }

    void
    emitFunctions()
    {
        const unsigned n = numFuncsPow2();
        for (unsigned k = 0; k < n; ++k) {
            b.bind(funcLabels[k]);
            if (k >= p.numFuncs) {
                // Alias table slots above numFuncs back onto real bodies.
                b.jump(funcLabels[k % p.numFuncs]);
                continue;
            }
            b.addi(isa::regSp, isa::regSp, -16);
            b.store(Opcode::Sd, isa::regRa, isa::regSp, 0);
            b.store(Opcode::Sd, rInner, isa::regSp, 8);

            const unsigned iters = std::max<unsigned>(
                1, p.innerIters / 2 + unsigned(rng.below(p.innerIters + 1)));
            b.addi(rInner, 0, static_cast<std::int32_t>(iters));
            Label loop = b.here();
            for (unsigned blk = 0; blk < p.blocksPerFunc; ++blk)
                emitBlock();
            b.addi(rInner, rInner, -1);
            b.branch(Opcode::Bne, rInner, 0, loop);

            if (p.recursionDepth > 0 && k % 3 == 0) {
                b.addi(rDepth, 0,
                       static_cast<std::int32_t>(p.recursionDepth));
                b.call(recHelper);
            }

            b.load(Opcode::Ld, isa::regRa, isa::regSp, 0);
            b.load(Opcode::Ld, rInner, isa::regSp, 8);
            b.addi(isa::regSp, isa::regSp, 16);
            b.ret();
        }
    }

    void
    emitRecHelper()
    {
        b.bind(recHelper);
        b.addi(isa::regSp, isa::regSp, -8);
        b.store(Opcode::Sd, isa::regRa, isa::regSp, 0);
        Label base = b.newLabel();
        b.branch(Opcode::Beq, rDepth, 0, base);
        b.addi(rDepth, rDepth, -1);
        b.call(recHelper);
        b.bind(base);
        b.load(Opcode::Ld, isa::regRa, isa::regSp, 0);
        b.addi(isa::regSp, isa::regSp, 8);
        b.ret();
    }

    void
    fillDispatchTable()
    {
        if (!p.indirectDispatch)
            return;
        for (unsigned k = 0; k < numFuncsPow2(); ++k)
            b.pokeData(tableBase + 8 * k, b.addressOf(funcLabels[k]), 8);
    }

    WorkloadParams p;
    Rng rng;
    ProgramBuilder b;
    Label entry;
    std::vector<Label> funcLabels;
    Label recHelper;
    std::uint64_t streamBase = 0;
    std::uint64_t biasBase = 0;
    std::uint64_t chaseBase = 0;
    std::uint64_t tableBase = 0;
};

WorkloadParams
makeProfile(const std::string &name)
{
    WorkloadParams p;
    p.name = name;

    if (name == "ammp") {
        // FP chemistry code: strided sweeps over multi-MB arrays, highly
        // predictable loop branches, little call activity.
        p.seed = 101;
        p.streamBytes = 2 << 20;
        p.strideBytes = 64;
        p.randomAccessFrac = 0.15;
        p.storeFrac = 0.3;
        p.memOpsPerBlock = 2;
        p.aluOpsPerBlock = 6;
        p.fpFrac = 0.7;
        p.branchBias = 0.93;
        p.numFuncs = 12;
        p.blocksPerFunc = 8;
        p.innerIters = 40;
        p.indirectDispatch = false;
    } else if (name == "art") {
        // FP neural-net code: streaming over image/weight arrays, very
        // predictable branches, long FP dependence chains.
        p.seed = 102;
        p.streamBytes = 1 << 20;
        p.strideBytes = 64;
        p.randomAccessFrac = 0.05;
        p.storeFrac = 0.2;
        p.memOpsPerBlock = 3;
        p.aluOpsPerBlock = 6;
        p.fpFrac = 0.8;
        p.branchBias = 0.97;
        p.numFuncs = 6;
        p.blocksPerFunc = 6;
        p.innerIters = 64;
        p.indirectDispatch = false;
    } else if (name == "gcc") {
        // Compiler: large instruction footprint, frequent short calls,
        // moderately predictable data-dependent branches.
        p.seed = 103;
        p.streamBytes = 256 << 10;
        p.strideBytes = 8;
        p.randomAccessFrac = 0.4;
        p.storeFrac = 0.3;
        p.memOpsPerBlock = 2;
        p.aluOpsPerBlock = 4;
        p.branchBias = 0.75;
        p.ddBranchesPerBlock = 2;
        p.numFuncs = 72;
        p.blocksPerFunc = 12;
        p.innerIters = 6;
        p.recursionDepth = 4;
    } else if (name == "mcf") {
        // Network-simplex: dominated by pointer chasing over a region that
        // dwarfs the L2; low IPC, cache-hostile.
        p.seed = 104;
        p.streamBytes = 128 << 10;
        p.chaseBytes = 2 << 20;
        p.chaseFrac = 0.7;
        p.randomAccessFrac = 0.5;
        p.storeFrac = 0.15;
        p.memOpsPerBlock = 3;
        p.aluOpsPerBlock = 3;
        p.branchBias = 0.6;
        p.numFuncs = 10;
        p.blocksPerFunc = 6;
        p.innerIters = 24;
        p.indirectDispatch = false;
    } else if (name == "parser") {
        // Recursive-descent parser: deep recursion (RAS pressure) and
        // near-random data-dependent branches.
        p.seed = 105;
        p.streamBytes = 128 << 10;
        p.randomAccessFrac = 0.5;
        p.storeFrac = 0.25;
        p.memOpsPerBlock = 2;
        p.aluOpsPerBlock = 4;
        p.branchBias = 0.52;
        p.ddBranchesPerBlock = 2;
        p.numFuncs = 32;
        p.blocksPerFunc = 8;
        p.innerIters = 8;
        p.recursionDepth = 12;
    } else if (name == "perl") {
        // Interpreter: indirect-dispatch heavy, sizable code footprint.
        p.seed = 106;
        p.streamBytes = 256 << 10;
        p.randomAccessFrac = 0.35;
        p.storeFrac = 0.3;
        p.memOpsPerBlock = 2;
        p.aluOpsPerBlock = 4;
        p.branchBias = 0.8;
        p.numFuncs = 48;
        p.blocksPerFunc = 10;
        p.innerIters = 6;
        p.recursionDepth = 6;
    } else if (name == "twolf") {
        // Place-and-route: small hot data, hard-to-predict branches.
        p.seed = 107;
        p.streamBytes = 32 << 10;
        p.biasBytes = 16 << 10;
        p.strideBytes = 16;
        p.randomAccessFrac = 0.6;
        p.storeFrac = 0.2;
        p.memOpsPerBlock = 2;
        p.aluOpsPerBlock = 5;
        p.branchBias = 0.58;
        p.ddBranchesPerBlock = 2;
        p.numFuncs = 20;
        p.blocksPerFunc = 8;
        p.innerIters = 16;
        p.indirectDispatch = false;
    } else if (name == "vortex") {
        // OO database: very call-heavy, many small functions, store-rich.
        p.seed = 108;
        p.streamBytes = 512 << 10;
        p.randomAccessFrac = 0.3;
        p.storeFrac = 0.35;
        p.memOpsPerBlock = 3;
        p.aluOpsPerBlock = 4;
        p.branchBias = 0.85;
        p.numFuncs = 64;
        p.blocksPerFunc = 8;
        p.innerIters = 4;
        p.recursionDepth = 2;
    } else if (name == "vpr") {
        // FPGA place-and-route: random access in a mid-size set, some FP.
        p.seed = 109;
        p.streamBytes = 256 << 10;
        p.strideBytes = 32;
        p.randomAccessFrac = 0.55;
        p.storeFrac = 0.25;
        p.memOpsPerBlock = 2;
        p.aluOpsPerBlock = 5;
        p.fpFrac = 0.25;
        p.branchBias = 0.62;
        p.numFuncs = 24;
        p.blocksPerFunc = 8;
        p.innerIters = 12;
        p.indirectDispatch = false;
    } else {
        rsr_throw_user("unknown standard workload: ", name);
    }
    return p;
}

} // namespace

func::Program
buildSynthetic(const WorkloadParams &params)
{
    return Generator(params).build();
}

std::vector<WorkloadParams>
standardWorkloadParams()
{
    static const char *names[] = {"ammp", "art", "gcc", "mcf", "parser",
                                  "perl", "twolf", "vortex", "vpr"};
    std::vector<WorkloadParams> out;
    out.reserve(std::size(names));
    for (const char *n : names)
        out.push_back(makeProfile(n));
    return out;
}

WorkloadParams
standardWorkloadParams(const std::string &name)
{
    return makeProfile(name);
}

} // namespace rsr::workload
