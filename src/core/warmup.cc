#include "warmup.hh"

#include <cmath>
#include <cstdio>

#include "core/reuse_latency.hh"
#include "util/error.hh"
#include "util/logging.hh"
#include "util/snapshot.hh"

namespace rsr::core
{

using isa::BranchKind;

namespace
{

/** Frame tag for a serialized branch-reconstruction measure context. */
constexpr std::uint32_t contextTag = fourcc('R', 'S', 'R', 'C');
constexpr std::uint32_t contextVersion = 1;

std::string
percentLabel(const char *base, double fraction)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s (%d%%)", base,
                  static_cast<int>(std::lround(fraction * 100)));
    return buf;
}

} // namespace

// --------------------------------------------------------------------------
// FunctionalWarmup
// --------------------------------------------------------------------------

FunctionalWarmup::FunctionalWarmup(bool warm_cache, bool warm_bp,
                                   double fraction, std::string label)
    : warmCache(warm_cache), warmBp(warm_bp), fraction(fraction),
      label(std::move(label))
{
    rsr_assert(fraction > 0.0 && fraction <= 1.0,
               "functional warm-up fraction out of range");
    rsr_assert(warm_cache || warm_bp, "warming nothing is NoWarmup");
}

void
FunctionalWarmup::beginSkip(std::uint64_t skip_len)
{
    skipLen = skip_len;
    skipPos = 0;
    // Warm the instructions in [warmStart, skipLen).
    warmStart = skip_len - static_cast<std::uint64_t>(std::llround(
                               static_cast<double>(skip_len) * fraction));
}

std::unique_ptr<FunctionalWarmup>
FunctionalWarmup::smarts()
{
    return std::make_unique<FunctionalWarmup>(true, true, 1.0, "S$BP");
}

std::unique_ptr<FunctionalWarmup>
FunctionalWarmup::smartsCacheOnly()
{
    return std::make_unique<FunctionalWarmup>(true, false, 1.0, "S$");
}

std::unique_ptr<FunctionalWarmup>
FunctionalWarmup::smartsBpOnly()
{
    return std::make_unique<FunctionalWarmup>(false, true, 1.0, "SBP");
}

std::unique_ptr<FunctionalWarmup>
FunctionalWarmup::fixedPeriod(double fraction)
{
    return std::make_unique<FunctionalWarmup>(true, true, fraction,
                                              percentLabel("FP", fraction));
}

// --------------------------------------------------------------------------
// ReverseReconstructionWarmup
// --------------------------------------------------------------------------

ReverseReconstructionWarmup::ReverseReconstructionWarmup(
    bool warm_cache, bool warm_bp, double fraction,
    PhtResolveMode pht_mode)
    : warmCache(warm_cache), warmBp(warm_bp), fraction(fraction),
      phtMode(pht_mode)
{
    rsr_assert(fraction > 0.0 && fraction <= 1.0,
               "reconstruction fraction out of range");
    rsr_assert(warm_cache || warm_bp, "reconstructing nothing is NoWarmup");
}

ReverseReconstructionWarmup::~ReverseReconstructionWarmup() = default;

std::string
ReverseReconstructionWarmup::name() const
{
    std::string base;
    if (warmCache && warmBp)
        base = percentLabel("R$BP", fraction);
    else if (warmCache)
        base = percentLabel("R$", fraction);
    else
        base = "RBP";
    if (phtMode == PhtResolveMode::ApplyToStale)
        base += "+stale";
    return base;
}

void
ReverseReconstructionWarmup::beginSkip(std::uint64_t skip_len)
{
    // Storage is kept only for the current skip region.
    skipLog.clear();
    if (warmCache)
        skipLog.mem.reserve(skip_len / 2);
    if (warmBp) {
        skipLog.branches.reserve(skip_len / 4);
        skipLog.ghrAtStart = machine->bp.ghr();
    }
}

void
ReverseReconstructionWarmup::beforeCluster()
{
    work_.peakLogBytes = std::max(work_.peakLogBytes, skipLog.bytes());
    if (warmCache) {
        const auto res =
            reconstructCaches(machine->hier, skipLog.mem, fraction);
        work_.reconstructionUpdates += res.updatesApplied;
    }
}

namespace
{

/**
 * Measurement-time half of RBP/R$BP: owns the branch half of the skip
 * log (moved out of the policy, so it survives deferred replay on a
 * worker thread) and runs the on-demand reconstructor against whichever
 * machine measures the cluster.
 */
class BranchReconstructionContext : public MeasureContext
{
  public:
    BranchReconstructionContext(SkipLog &&branch_log, PhtResolveMode mode)
        : log(std::move(branch_log)), mode(mode)
    {}

    void
    attach(Machine &m) override
    {
        recon = std::make_unique<BranchReconstructor>(m.bp, mode);
        recon->begin(log);
    }

    std::uint64_t
    detach(Machine &) override
    {
        const auto &st = recon->stats();
        const std::uint64_t updates = st.phtReconstructed +
                                      st.btbReconstructed +
                                      st.rasReconstructed;
        recon->end();
        recon.reset();
        return updates;
    }

    void
    snapshot(Serializer &out) const override
    {
        out.begin(contextTag, contextVersion);
        out.putU8(static_cast<std::uint8_t>(mode));
        out.putU32(log.ghrAtStart);
        out.putU64(log.branches.size());
        for (const auto &b : log.branches) {
            out.putU64(b.pc);
            out.putU64(b.target);
            out.putU8(static_cast<std::uint8_t>(b.kind));
            out.putU8(b.taken ? 1 : 0);
        }
        out.end();
    }

  private:
    SkipLog log;
    PhtResolveMode mode;
    std::unique_ptr<BranchReconstructor> recon;
};

} // namespace

void
MeasureContext::snapshot(Serializer &) const
{
    rsr_throw_user(
        "this warm-up policy's measure context does not support "
        "live-point capture");
}

std::unique_ptr<MeasureContext>
restoreMeasureContext(Deserializer &in)
{
    const std::uint32_t version = in.begin(contextTag);
    if (version != contextVersion)
        rsr_throw_corrupt("measure-context frame version skew: v",
                          version, ", this build reads v",
                          contextVersion);
    const std::uint8_t mode_raw = in.getU8();
    if (mode_raw > static_cast<std::uint8_t>(PhtResolveMode::ApplyToStale))
        rsr_throw_corrupt("measure-context frame has unknown PHT resolve "
                          "mode ", unsigned{mode_raw});
    SkipLog log;
    log.ghrAtStart = in.getU32();
    const std::uint64_t count = in.getU64();
    log.branches.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        BranchRecord b;
        b.pc = in.getU64();
        b.target = in.getU64();
        const std::uint8_t kind_raw = in.getU8();
        if (kind_raw > static_cast<std::uint8_t>(isa::BranchKind::IndirectJump))
            rsr_throw_corrupt("measure-context branch record ", i,
                              " has unknown branch kind ",
                              unsigned{kind_raw});
        b.kind = static_cast<isa::BranchKind>(kind_raw);
        b.taken = in.getU8() != 0;
        log.branches.push_back(b);
    }
    in.end();
    return std::make_unique<BranchReconstructionContext>(
        std::move(log), static_cast<PhtResolveMode>(mode_raw));
}

std::unique_ptr<MeasureContext>
ReverseReconstructionWarmup::makeMeasureContext()
{
    if (!warmBp)
        return nullptr;
    // Hand the branch records to the context; the memory half stays here
    // (it was consumed eagerly by beforeCluster) and afterCluster drops
    // it as usual.
    SkipLog branch_log;
    branch_log.branches = std::move(skipLog.branches);
    branch_log.ghrAtStart = skipLog.ghrAtStart;
    skipLog.branches.clear();
    return std::make_unique<BranchReconstructionContext>(
        std::move(branch_log), phtMode);
}

void
ReverseReconstructionWarmup::afterCluster()
{
    skipLog.clear();
}

std::unique_ptr<ReverseReconstructionWarmup>
ReverseReconstructionWarmup::cacheOnly(double fraction)
{
    return std::make_unique<ReverseReconstructionWarmup>(true, false,
                                                         fraction);
}

std::unique_ptr<ReverseReconstructionWarmup>
ReverseReconstructionWarmup::bpOnly()
{
    return std::make_unique<ReverseReconstructionWarmup>(false, true, 1.0);
}

std::unique_ptr<ReverseReconstructionWarmup>
ReverseReconstructionWarmup::full(double fraction)
{
    return std::make_unique<ReverseReconstructionWarmup>(true, true,
                                                         fraction);
}

// --------------------------------------------------------------------------

std::unique_ptr<WarmupPolicy>
makePolicyByName(const std::string &name)
{
    std::string base = name;
    PhtResolveMode mode = PhtResolveMode::PaperTieBreak;
    if (const auto pos = base.rfind("+stale");
        pos != std::string::npos && pos == base.size() - 6) {
        mode = PhtResolveMode::ApplyToStale;
        base = base.substr(0, pos);
    }

    auto percent_of = [&](std::size_t prefix_len) {
        const std::string digits = base.substr(prefix_len);
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") != std::string::npos)
            rsr_throw_user("bad warm-up percentage in '", name, "'");
        const int pct = std::atoi(digits.c_str());
        if (pct <= 0 || pct > 100)
            rsr_throw_user("warm-up percentage out of range in '", name,
                           "'");
        return pct / 100.0;
    };

    if (base == "none")
        return std::make_unique<NoWarmup>();
    if (base == "smarts")
        return FunctionalWarmup::smarts();
    if (base == "scache")
        return FunctionalWarmup::smartsCacheOnly();
    if (base == "sbp")
        return FunctionalWarmup::smartsBpOnly();
    if (base.rfind("fp", 0) == 0)
        return FunctionalWarmup::fixedPeriod(percent_of(2));
    if (base.rfind("rsr", 0) == 0)
        return std::make_unique<ReverseReconstructionWarmup>(
            true, true, percent_of(3), mode);
    if (base.rfind("rcache", 0) == 0)
        return std::make_unique<ReverseReconstructionWarmup>(
            true, false, percent_of(6), mode);
    if (base == "rbp")
        return std::make_unique<ReverseReconstructionWarmup>(false, true,
                                                             1.0, mode);
    if (name == "mrrl")
        return std::make_unique<ReuseLatencyWarmup>(ReuseLatencyKind::Mrrl);
    if (name == "blrl")
        return std::make_unique<ReuseLatencyWarmup>(ReuseLatencyKind::Blrl);
    rsr_throw_user("unknown warm-up policy '", name,
                   "'; known: none, smarts, scache, sbp, fp<pct>, "
                   "rsr<pct>, rcache<pct>, rbp (+stale suffix for RSR "
                   "variants), mrrl, blrl");
}

const std::vector<std::string> &
table2PolicyNames()
{
    static const std::vector<std::string> names{
        "none",     "fp20",     "fp40",     "fp80",      "scache", "sbp",
        "smarts",   "rcache20", "rcache40", "rcache80",  "rcache100",
        "rbp",      "rsr20",    "rsr40",    "rsr80",     "rsr100"};
    return names;
}

std::vector<std::unique_ptr<WarmupPolicy>>
makeTable2Policies()
{
    std::vector<std::unique_ptr<WarmupPolicy>> out;
    for (const std::string &name : table2PolicyNames())
        out.push_back(makePolicyByName(name));
    return out;
}

} // namespace rsr::core
