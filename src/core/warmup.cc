#include "warmup.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string_view>

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
    rsr_assert(fraction >= 0.0 && fraction <= 1.0,
               "functional warm-up fraction out of range");
    rsr_assert((warm_cache || warm_bp) == (fraction > 0.0),
               "warming nothing is fraction 0 (None)");
}

FunctionalWarmup::FunctionalWarmup(ReuseLatencyKind kind, double percentile)
    : FunctionalWarmup(true, true, 1.0,
                       kind == ReuseLatencyKind::Mrrl ? "MRRL" : "BLRL")
{
    profiled = true;
    this->percentile = percentile;
    profile_.kind = kind;
}

void
FunctionalWarmup::prepare(const func::Program &program,
                          const std::vector<Cluster> &schedule,
                          const Deadline *deadline)
{
    if (!profiled)
        return;
    profile_ = profileReuseLatency(program, schedule, profile_.kind,
                                   percentile, deadline);
    region = 0;
}

void
FunctionalWarmup::beginSkip(std::uint64_t skip_len)
{
    // Warm the instructions in [warmStart, skip_len).
    std::uint64_t warm_len;
    if (profiled) {
        rsr_assert(region < profile_.warmupLengths.size(),
                   "more skip regions than the profile covers — prepare() "
                   "the policy with the run's schedule first");
        warm_len = std::min(profile_.warmupLengths[region++], skip_len);
    } else {
        warm_len = static_cast<std::uint64_t>(
            std::llround(static_cast<double>(skip_len) * fraction));
    }
    warmStart = skip_len - warm_len;
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
    rsr_assert(warm_cache || warm_bp, "reconstructing nothing is None");
}

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

// --------------------------------------------------------------------------
// MeasureContext
// --------------------------------------------------------------------------

MeasureContext::MeasureContext(SkipLog &&branch_log, PhtResolveMode mode)
    : log(std::move(branch_log)), mode(mode)
{}

void
MeasureContext::attach(Machine &m)
{
    recon = std::make_unique<BranchReconstructor>(m.bp, mode);
    recon->begin(log);
}

std::uint64_t
MeasureContext::detach(Machine &)
{
    const auto &st = recon->stats();
    const std::uint64_t updates =
        st.phtReconstructed + st.btbReconstructed + st.rasReconstructed;
    recon->end();
    recon.reset();
    return updates;
}

void
MeasureContext::snapshot(Serializer &out) const
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

std::unique_ptr<MeasureContext>
restoreMeasureContext(Deserializer &in)
{
    in.begin(contextTag, contextVersion);
    const std::uint8_t mode_raw = in.getU8();
    if (mode_raw > static_cast<std::uint8_t>(PhtResolveMode::ApplyToStale))
        rsr_throw_corrupt("measure-context frame has unknown PHT resolve "
                          "mode ", unsigned{mode_raw});
    SkipLog log;
    log.ghrAtStart = in.getU32();
    const std::uint64_t count = in.getU64();
    if (count > in.frameRemaining() / 18) // 18 payload bytes per record
        rsr_throw_corrupt("measure-context frame claims ", count,
                          " branch records in ", in.frameRemaining(),
                          " bytes");
    log.branches.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        BranchRecord b;
        b.pc = in.getU64();
        b.target = in.getU64();
        const std::uint8_t kind_raw = in.getU8();
        if (kind_raw > static_cast<std::uint8_t>(BranchKind::IndirectJump))
            rsr_throw_corrupt("measure-context branch record ", i,
                              " has unknown branch kind ",
                              unsigned{kind_raw});
        b.kind = static_cast<BranchKind>(kind_raw);
        b.taken = in.getU8() != 0;
        log.branches.push_back(b);
    }
    in.end();
    return std::make_unique<MeasureContext>(
        std::move(log), static_cast<PhtResolveMode>(mode_raw));
}

std::unique_ptr<MeasureContext>
ReverseReconstructionWarmup::makeMeasureContext()
{
    if (!warmBp)
        return nullptr;
    // Hand the branch records to the context; the memory half stays here
    // (it was consumed eagerly by beforeCluster) until the next
    // beginSkip() clears the log.
    SkipLog branch_log;
    branch_log.branches = std::move(skipLog.branches);
    branch_log.ghrAtStart = skipLog.ghrAtStart;
    skipLog.branches.clear();
    return std::make_unique<MeasureContext>(std::move(branch_log), phtMode);
}

// --------------------------------------------------------------------------

std::unique_ptr<WarmupPolicy>
makePolicyByName(const std::string &name)
{
    std::string_view base = name;
    const bool stale = base.ends_with("+stale");
    if (stale)
        base.remove_suffix(6);
    const PhtResolveMode mode = stale ? PhtResolveMode::ApplyToStale
                                      : PhtResolveMode::PaperTieBreak;

    // One spelling per percentage ("rsr20", never "rsr020"), so that
    // one policy has one name and one store key.
    auto percent_of = [&](std::size_t prefix_len) {
        const std::string_view digits = base.substr(prefix_len);
        unsigned pct = 0;
        const auto [end, ec] = std::from_chars(
            digits.data(), digits.data() + digits.size(), pct);
        if (ec != std::errc{} || end != digits.data() + digits.size() ||
            digits.front() == '0' || pct > 100)
            rsr_throw_user("bad warm-up percentage in '", name,
                           "': expected 1-100 with no leading zero");
        return pct / 100.0;
    };

    if (base.starts_with("rsr"))
        return std::make_unique<ReverseReconstructionWarmup>(
            true, true, percent_of(3), mode);
    if (base.starts_with("rcache"))
        return std::make_unique<ReverseReconstructionWarmup>(
            true, false, percent_of(6), mode);
    if (base == "rbp")
        return std::make_unique<ReverseReconstructionWarmup>(false, true,
                                                             1.0, mode);
    if (stale)
        rsr_throw_user("warm-up policy '", name, "': the +stale suffix "
                       "applies only to rsr<pct>, rcache<pct> and rbp");
    if (base == "none")
        return std::make_unique<FunctionalWarmup>(false, false, 0.0, "None");
    if (base == "smarts")
        return std::make_unique<FunctionalWarmup>(true, true, 1.0, "S$BP");
    if (base == "scache")
        return std::make_unique<FunctionalWarmup>(true, false, 1.0, "S$");
    if (base == "sbp")
        return std::make_unique<FunctionalWarmup>(false, true, 1.0, "SBP");
    if (base.starts_with("fp")) {
        const double fraction = percent_of(2);
        return std::make_unique<FunctionalWarmup>(
            true, true, fraction, percentLabel("FP", fraction));
    }
    if (base == "mrrl")
        return std::make_unique<FunctionalWarmup>(ReuseLatencyKind::Mrrl);
    if (base == "blrl")
        return std::make_unique<FunctionalWarmup>(ReuseLatencyKind::Blrl);
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
