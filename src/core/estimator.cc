#include "core/estimator.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <utility>

#include "util/error.hh"
#include "util/random.hh"

namespace rsr::core
{

namespace
{

/** Golden-ratio stream splitter for per-stratum seeded draws. */
constexpr std::uint64_t kSeedStride = 0x9e3779b97f4a7c15ull;
/** Salt separating the phase-2 draw stream from the pilot stream. */
constexpr std::uint64_t kPhase2Salt = 0x5ca1ab1e0ddba11ull;

/** Zip-sort a plan so chosen indices ascend with groups kept parallel. */
void
sortPlan(SelectionPlan &plan)
{
    std::vector<std::pair<std::size_t, std::uint32_t>> zipped;
    zipped.reserve(plan.chosen.size());
    for (std::size_t i = 0; i < plan.chosen.size(); ++i)
        zipped.emplace_back(plan.chosen[i], plan.group[i]);
    std::sort(zipped.begin(), zipped.end());
    for (std::size_t i = 0; i < zipped.size(); ++i) {
        plan.chosen[i] = zipped[i].first;
        plan.group[i] = zipped[i].second;
    }
}

/**
 * The canonical proxy ranking, (score, index) ascending, used for both
 * within-set ordering and stratification. The index tie-break makes
 * equal scores (common for short synthetic clusters) deterministic, so
 * a selection never depends on memory layout.
 */
auto
byScore(const std::vector<double> &scores)
{
    return [&scores](std::size_t a, std::size_t b) {
        if (scores[a] != scores[b])
            return scores[a] < scores[b];
        return a < b;
    };
}

/** Every candidate index in byScore() order. */
std::vector<std::size_t>
scoreOrder(const std::vector<double> &scores)
{
    std::vector<std::size_t> order(scores.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), byScore(scores));
    return order;
}

/**
 * Deterministic draw of @p take distinct elements from @p pool (consumed
 * in place via partial Fisher-Yates). Pool order must be canonical
 * (ascending index) for the draw to be reproducible.
 */
std::vector<std::size_t>
drawWithoutReplacement(std::vector<std::size_t> &pool, std::uint64_t take,
                       Rng &rng)
{
    const std::uint64_t n = pool.size();
    const std::uint64_t k = std::min<std::uint64_t>(take, n);
    for (std::uint64_t i = 0; i < k; ++i) {
        const std::uint64_t j = i + rng.below(n - i);
        std::swap(pool[i], pool[j]);
    }
    return {pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(k)};
}

} // namespace

const char *
samplingPolicyName(SamplingPolicyKind kind)
{
    switch (kind) {
      case SamplingPolicyKind::UniformCluster:
        return "uniform";
      case SamplingPolicyKind::RankedSet:
        return "ranked-set";
      case SamplingPolicyKind::TwoPhaseStratified:
        return "two-phase";
    }
    rsr_throw_internal("unknown SamplingPolicyKind ",
                       static_cast<int>(kind));
}

SamplingPolicyKind
samplingPolicyByName(const std::string &name)
{
    if (name == "uniform")
        return SamplingPolicyKind::UniformCluster;
    if (name == "ranked-set")
        return SamplingPolicyKind::RankedSet;
    if (name == "two-phase")
        return SamplingPolicyKind::TwoPhaseStratified;
    rsr_throw_user("unknown sampling policy '", name,
                   "' (expected uniform, ranked-set, or two-phase)");
}

const char *
proxyKindName(ProxyKind kind)
{
    switch (kind) {
      case ProxyKind::FuncIpc:
        return "ipc";
      case ProxyKind::BbvDistance:
        return "bbv";
    }
    rsr_throw_internal("unknown ProxyKind ", static_cast<int>(kind));
}

ProxyKind
proxyKindByName(const std::string &name)
{
    if (name == "ipc")
        return ProxyKind::FuncIpc;
    if (name == "bbv")
        return ProxyKind::BbvDistance;
    rsr_throw_user("unknown proxy kind '", name,
                   "' (expected ipc or bbv)");
}

std::string
EstimatorOptions::describe() const
{
    std::ostringstream os;
    os << samplingPolicyName(kind);
    if (kind == SamplingPolicyKind::UniformCluster)
        return os.str();
    os << "[";
    if (kind == SamplingPolicyKind::RankedSet)
        os << "m=" << setSize;
    else
        os << "strata=" << strata << ",pilot=" << phase1PerStratum
           << ",over=" << setSize;
    os << ",proxy=" << proxyKindName(proxy) << ",seed=0x" << std::hex
       << rankSeed << std::dec << "]";
    return os.str();
}

std::uint64_t
effectiveRankedSetBudget(std::uint64_t budget, const EstimatorOptions &opts)
{
    const std::uint64_t m = std::max<std::uint64_t>(opts.setSize, 1);
    if (budget <= m)
        return m;
    return (budget / m) * m;
}

std::uint64_t
estimatorCandidateCount(std::uint64_t budget, const EstimatorOptions &opts)
{
    switch (opts.kind) {
      case SamplingPolicyKind::UniformCluster:
        return budget;
      case SamplingPolicyKind::RankedSet:
        return effectiveRankedSetBudget(budget, opts) * opts.setSize;
      case SamplingPolicyKind::TwoPhaseStratified:
        return budget * std::max<std::uint64_t>(opts.setSize, 1);
    }
    rsr_throw_internal("unknown SamplingPolicyKind ",
                       static_cast<int>(opts.kind));
}

SelectionPlan
rankedSetSelect(const std::vector<double> &scores, std::uint64_t budget,
                const EstimatorOptions &opts)
{
    const std::uint64_t m = opts.setSize;
    if (m == 0)
        rsr_throw_user("ranked-set sampling needs set size >= 1");
    if (budget == 0 || budget % m != 0)
        rsr_throw_user("ranked-set budget ", budget,
                       " is not a positive multiple of the set size ", m,
                       " (round with effectiveRankedSetBudget)");
    if (scores.size() != budget * m)
        rsr_throw_internal("ranked-set selection wants ", budget * m,
                           " candidate scores, got ", scores.size());

    // Seeded assignment of candidates to ranking sets: a full
    // Fisher-Yates permutation, then consecutive runs of m.
    std::vector<std::size_t> perm(scores.size());
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    Rng rng(opts.rankSeed);
    for (std::size_t i = perm.size() - 1; i > 0; --i) {
        const std::uint64_t j = rng.below(i + 1);
        std::swap(perm[i], perm[j]);
    }

    SelectionPlan plan;
    plan.chosen.reserve(budget);
    plan.group.reserve(budget);
    std::vector<std::size_t> set(m);
    for (std::uint64_t s = 0; s < budget; ++s) {
        const auto begin = perm.begin() + static_cast<std::ptrdiff_t>(s * m);
        std::copy(begin, begin + static_cast<std::ptrdiff_t>(m),
                  set.begin());
        std::sort(set.begin(), set.end(), byScore(scores));
        // Repeated subsampling: set s contributes the order statistic of
        // rank s mod m, cycling so every rank class gets budget/m sets.
        const std::uint32_t rank = static_cast<std::uint32_t>(s % m);
        plan.chosen.push_back(set[rank]);
        plan.group.push_back(rank);
    }
    sortPlan(plan);
    return plan;
}

StrataPlan
stratifyByScore(const std::vector<double> &scores, std::uint64_t strata)
{
    const std::uint64_t n = scores.size();
    if (n == 0)
        rsr_throw_user("cannot stratify an empty candidate pool");

    const std::vector<std::size_t> order = scoreOrder(scores);
    StrataPlan plan;
    plan.stratumOf.assign(n, 0);
    plan.stratumSize = quantileStratumSizes(n, strata);
    std::size_t pos = 0;
    for (std::size_t h = 0; h < plan.stratumSize.size(); ++h)
        for (std::uint64_t k = 0; k < plan.stratumSize[h]; ++k)
            plan.stratumOf[order[pos++]] = static_cast<std::uint32_t>(h);
    return plan;
}

namespace
{

/** Stratum members in ascending candidate index (the canonical pool). */
std::vector<std::vector<std::size_t>>
stratumMembers(const StrataPlan &plan)
{
    std::vector<std::vector<std::size_t>> members(plan.stratumSize.size());
    for (std::size_t h = 0; h < members.size(); ++h)
        members[h].reserve(plan.stratumSize[h]);
    for (std::size_t c = 0; c < plan.stratumOf.size(); ++c)
        members[plan.stratumOf[c]].push_back(c);
    return members;
}

} // namespace

SelectionPlan
pilotSelect(const StrataPlan &plan, std::uint64_t per_stratum,
            std::uint64_t rank_seed)
{
    auto members = stratumMembers(plan);
    SelectionPlan pilot;
    for (std::size_t h = 0; h < members.size(); ++h) {
        Rng rng(rank_seed + kSeedStride * (static_cast<std::uint64_t>(h) + 1));
        for (std::size_t c : drawWithoutReplacement(members[h], per_stratum,
                                                    rng)) {
            pilot.chosen.push_back(c);
            pilot.group.push_back(static_cast<std::uint32_t>(h));
        }
    }
    sortPlan(pilot);
    return pilot;
}

std::vector<std::uint64_t>
allocateNeyman(const std::vector<double> &sigma,
               const std::vector<std::uint64_t> &stratum_size,
               const std::vector<std::uint64_t> &cap, std::uint64_t budget)
{
    const std::size_t h_count = sigma.size();
    if (stratum_size.size() != h_count || cap.size() != h_count)
        rsr_throw_internal("allocateNeyman given mismatched vectors: ",
                           h_count, " sigmas, ", stratum_size.size(),
                           " sizes, ", cap.size(), " caps");

    std::vector<std::uint64_t> alloc(h_count, 0);
    if (h_count == 0)
        return alloc;

    // Neyman weight N_h * sigma_h; when the pilot saw no variation
    // anywhere, degrade to plain proportional allocation.
    std::vector<double> weight(h_count, 0.0);
    double total_weight = 0.0;
    for (std::size_t h = 0; h < h_count; ++h) {
        weight[h] = static_cast<double>(stratum_size[h]) * sigma[h];
        total_weight += weight[h];
    }
    if (total_weight <= 0.0) {
        for (std::size_t h = 0; h < h_count; ++h) {
            weight[h] = static_cast<double>(stratum_size[h]);
            total_weight += weight[h];
        }
    }
    if (total_weight <= 0.0)
        return alloc;

    std::uint64_t total_cap = 0;
    for (std::uint64_t c : cap)
        total_cap += c;
    std::uint64_t target = std::min(budget, total_cap);

    // Largest-remainder rounding of the capped ideal shares.
    std::vector<double> remainder(h_count, 0.0);
    std::uint64_t assigned = 0;
    for (std::size_t h = 0; h < h_count; ++h) {
        const double ideal =
            static_cast<double>(target) * weight[h] / total_weight;
        std::uint64_t whole = static_cast<std::uint64_t>(ideal);
        remainder[h] = ideal - static_cast<double>(whole);
        if (whole > cap[h]) {
            whole = cap[h];
            remainder[h] = 0.0;
        }
        alloc[h] = whole;
        assigned += whole;
    }

    // Hand out the leftover one unit at a time in (remainder desc,
    // stratum asc) order, skipping saturated strata; repeat passes until
    // the target is met — it always is, because target <= sum(cap).
    while (assigned < target) {
        std::vector<std::size_t> eligible;
        for (std::size_t h = 0; h < h_count; ++h)
            if (alloc[h] < cap[h])
                eligible.push_back(h);
        std::sort(eligible.begin(), eligible.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (remainder[a] != remainder[b])
                          return remainder[a] > remainder[b];
                      return a < b;
                  });
        for (std::size_t h : eligible) {
            if (assigned >= target)
                break;
            ++alloc[h];
            ++assigned;
            remainder[h] = 0.0;
        }
    }
    return alloc;
}

SelectionPlan
finalStratifiedSelect(const StrataPlan &plan, const SelectionPlan &pilot,
                      const std::vector<std::uint64_t> &extra_per_stratum,
                      std::uint64_t rank_seed)
{
    if (extra_per_stratum.size() != plan.stratumSize.size())
        rsr_throw_internal("finalStratifiedSelect allocation covers ",
                           extra_per_stratum.size(), " strata, plan has ",
                           plan.stratumSize.size());

    std::vector<bool> taken(plan.stratumOf.size(), false);
    for (std::size_t c : pilot.chosen)
        taken[c] = true;

    SelectionPlan final_plan = pilot;
    auto members = stratumMembers(plan);
    for (std::size_t h = 0; h < members.size(); ++h) {
        std::vector<std::size_t> pool;
        pool.reserve(members[h].size());
        for (std::size_t c : members[h])
            if (!taken[c])
                pool.push_back(c);
        Rng rng((rank_seed ^ kPhase2Salt) +
                kSeedStride * (static_cast<std::uint64_t>(h) + 1));
        for (std::size_t c :
             drawWithoutReplacement(pool, extra_per_stratum[h], rng)) {
            final_plan.chosen.push_back(c);
            final_plan.group.push_back(static_cast<std::uint32_t>(h));
        }
    }
    sortPlan(final_plan);
    return final_plan;
}

ClusterEstimate
rankedSetEstimate(const std::vector<double> &ipc,
                  const std::vector<std::uint32_t> &rank_class,
                  std::uint64_t set_size)
{
    if (ipc.size() != rank_class.size())
        rsr_throw_internal("rankedSetEstimate given ", ipc.size(),
                           " measurements but ", rank_class.size(),
                           " rank classes");
    const std::uint64_t m = std::max<std::uint64_t>(set_size, 1);

    std::vector<RunningMoments> cls(m);
    RunningMoments pooled;
    for (std::size_t i = 0; i < ipc.size(); ++i) {
        const std::uint32_t r = rank_class[i];
        if (r >= m)
            rsr_throw_internal("rank class ", r, " out of range for m=", m);
        cls[r].add(ipc[i]);
        pooled.add(ipc[i]);
    }

    ClusterEstimate est;
    est.numClusters = pooled.n;
    if (pooled.n == 0)
        return est;

    // Mean of rank-class means over the classes that were measured.
    std::uint64_t active = 0;
    double class_mean_sum = 0.0;
    bool every_class_replicated = true;
    for (const RunningMoments &c : cls) {
        if (c.n == 0)
            continue;
        ++active;
        class_mean_sum += c.mean();
        if (c.n < 2)
            every_class_replicated = false;
    }
    est.mean = class_mean_sum / static_cast<double>(active);
    est.stddev = std::sqrt(pooled.variance());

    if (every_class_replicated) {
        // Var(est) = (1/k^2) sum_i s_i^2 / r_i: each rank class is an
        // independent simple random sample of one order statistic.
        double var = 0.0;
        for (const RunningMoments &c : cls)
            if (c.n > 0)
                var += c.variance() / static_cast<double>(c.n);
        var /= static_cast<double>(active) * static_cast<double>(active);
        est.stdErr = std::sqrt(var);
    } else {
        // Too few replicates to estimate within-class variance: fall
        // back to the (conservative) pooled SRS standard error.
        est.stdErr =
            est.stddev / std::sqrt(static_cast<double>(pooled.n));
    }
    est.ciLow = est.mean - 1.96 * est.stdErr;
    est.ciHigh = est.mean + 1.96 * est.stdErr;
    return est;
}

ClusterEstimate
stratifiedEstimate(const std::vector<double> &ipc,
                   const std::vector<std::uint32_t> &stratum,
                   const std::vector<std::uint64_t> &stratum_size)
{
    if (ipc.size() != stratum.size())
        rsr_throw_internal("stratifiedEstimate given ", ipc.size(),
                           " measurements but ", stratum.size(),
                           " stratum ids");
    const std::size_t h_count = stratum_size.size();

    std::vector<RunningMoments> strata(h_count);
    for (std::size_t i = 0; i < ipc.size(); ++i) {
        const std::uint32_t h = stratum[i];
        if (h >= h_count)
            rsr_throw_internal("stratum id ", h, " out of range for H=",
                               h_count);
        strata[h].add(ipc[i]);
    }

    ClusterEstimate est;
    est.numClusters = ipc.size();
    if (ipc.size() == 0)
        return est;

    // Weights renormalize over the strata actually measured, so a
    // degenerate plan (empty stratum) still yields a sane estimate.
    double covered = 0.0;
    for (std::size_t h = 0; h < h_count; ++h)
        if (strata[h].n > 0)
            covered += static_cast<double>(stratum_size[h]);
    if (covered <= 0.0)
        return est;

    // Pooled within-stratum variance lends a spread estimate to strata
    // measured only once.
    double pooled_num = 0.0;
    double pooled_den = 0.0;
    for (const RunningMoments &s : strata)
        if (s.n >= 2) {
            pooled_num += static_cast<double>(s.n - 1) * s.variance();
            pooled_den += static_cast<double>(s.n - 1);
        }
    const double pooled_var = pooled_den > 0.0 ? pooled_num / pooled_den
                                               : 0.0;

    double var = 0.0;
    for (std::size_t h = 0; h < h_count; ++h) {
        const RunningMoments &s = strata[h];
        if (s.n == 0)
            continue;
        const double w = static_cast<double>(stratum_size[h]) / covered;
        est.mean += w * s.mean();
        const double s2 = s.n >= 2 ? s.variance() : pooled_var;
        var += w * w * s2 / static_cast<double>(s.n);
    }
    est.stdErr = std::sqrt(var);
    est.stddev = est.stdErr * std::sqrt(static_cast<double>(ipc.size()));
    est.ciLow = est.mean - 1.96 * est.stdErr;
    est.ciHigh = est.mean + 1.96 * est.stdErr;
    return est;
}

std::vector<std::uint64_t>
quantileStratumSizes(std::uint64_t candidate_count, std::uint64_t strata)
{
    const std::uint64_t h_eff = std::max<std::uint64_t>(
        1, std::min(strata, candidate_count));
    std::vector<std::uint64_t> sizes(h_eff, candidate_count / h_eff);
    for (std::uint64_t h = 0; h < candidate_count % h_eff; ++h)
        ++sizes[h];
    return sizes;
}

ClusterEstimate
estimateFor(const EstimatorOptions &opts, std::uint64_t budget,
            const std::vector<double> &ipc,
            const std::vector<std::uint32_t> &groups)
{
    switch (opts.kind) {
      case SamplingPolicyKind::UniformCluster:
        return summarizeClusters(ipc);
      case SamplingPolicyKind::RankedSet:
        return rankedSetEstimate(ipc, groups, opts.setSize);
      case SamplingPolicyKind::TwoPhaseStratified:
        return stratifiedEstimate(
            ipc, groups,
            quantileStratumSizes(estimatorCandidateCount(budget, opts),
                                 opts.strata));
    }
    rsr_throw_internal("unknown SamplingPolicyKind ",
                       static_cast<int>(opts.kind));
}

PairedComparison
matchedPairCompare(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        rsr_throw_user("matched-pair comparison needs equal-length "
                       "samples, got ",
                       a.size(), " and ", b.size());

    PairedComparison cmp;
    cmp.pairs = a.size();
    if (a.empty())
        return cmp;

    RunningMoments diffs;
    for (std::size_t i = 0; i < a.size(); ++i)
        diffs.add(a[i] - b[i]);
    cmp.meanDiff = diffs.mean();
    cmp.stddev = std::sqrt(diffs.variance());
    if (diffs.n >= 2) {
        cmp.stdErr = cmp.stddev / std::sqrt(static_cast<double>(diffs.n));
        const double t = tQuantile975(diffs.n - 1);
        cmp.ciLow = cmp.meanDiff - t * cmp.stdErr;
        cmp.ciHigh = cmp.meanDiff + t * cmp.stdErr;
    } else {
        cmp.ciLow = cmp.meanDiff;
        cmp.ciHigh = cmp.meanDiff;
    }
    return cmp;
}

double
tQuantile975(std::uint64_t df)
{
    // Two-sided 95% Student-t critical values for df 1..30; beyond the
    // table the normal limit is within half a percent.
    static const double table[30] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
    };
    if (df == 0)
        return 0.0;
    if (df <= 30)
        return table[df - 1];
    return 1.96;
}

} // namespace rsr::core
