/**
 * @file
 * Sampling-policy taxonomy and estimator statistics beyond uniform
 * cluster sampling (Ekman-style ranked-set sampling with repeated
 * subsampling, and two-phase stratified sampling), plus matched-pair
 * confidence intervals for method-vs-method comparison.
 *
 * The pieces here are pure, deterministic math over proxy-score and
 * measurement vectors:
 *
 *   - candidate partitioning into ranking sets / proxy-quantile strata,
 *   - which candidates to spend expensive timing measurement on
 *     (ranked-set order statistics; seeded pilot draws per stratum),
 *   - phase-2 budget allocation across strata proportional to the
 *     pilot's per-stratum variation (Neyman allocation with
 *     largest-remainder rounding),
 *   - the matching point estimates and confidence intervals.
 *
 * All ties are broken by candidate index, all iteration is in sorted
 * order, and every random draw flows through a seeded Rng, so a whole
 * estimator run replays bit-identically from its configuration —
 * harness/estimator_run.hh composes these with the deferred measurement
 * pipeline, which is itself bit-identical across worker counts.
 */

#ifndef RSR_CORE_ESTIMATOR_HH
#define RSR_CORE_ESTIMATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/statistics.hh"

namespace rsr::core
{

/** How measurement clusters are chosen from the candidate pool. */
enum class SamplingPolicyKind : std::uint8_t
{
    /** Measure every candidate (the classic Table-2 estimator). */
    UniformCluster = 0,
    /** Ranked-set sampling with repeated subsampling: candidates are
     *  grouped into seeded ranking sets of m, ordered within each set by
     *  a cheap proxy rank, and each set contributes one order statistic
     *  (the rank rotating across sets) to the measured sample. */
    RankedSet = 1,
    /** Two-phase stratified sampling: candidates are stratified by proxy
     *  quantile; a pilot phase measures a few clusters per stratum to
     *  estimate per-stratum variation, and the final measurement budget
     *  is allocated across strata proportional to it. */
    TwoPhaseStratified = 2,
};

/** Which cheap proxy orders/stratifies the candidates. */
enum class ProxyKind : std::uint8_t
{
    /** Functional-simulation IPC proxy: a tiny direct-mapped cache and
     *  bimodal predictor driven during the functional pass (see
     *  phase_driver.hh's profileClusterProxies). */
    FuncIpc = 0,
    /** Distance of the candidate's basic-block vector from the candidate
     *  centroid (see simpoint/proxy.hh). */
    BbvDistance = 1,
};

/** CLI-facing names: "uniform", "ranked-set", "two-phase". */
const char *samplingPolicyName(SamplingPolicyKind kind);
SamplingPolicyKind samplingPolicyByName(const std::string &name);

/** CLI-facing names: "ipc", "bbv". */
const char *proxyKindName(ProxyKind kind);
ProxyKind proxyKindByName(const std::string &name);

/** Everything that parameterizes a non-uniform sampling policy. */
struct EstimatorOptions
{
    SamplingPolicyKind kind = SamplingPolicyKind::UniformCluster;
    ProxyKind proxy = ProxyKind::FuncIpc;
    /** Ranked-set: candidates per ranking set (m). Two-phase: candidate
     *  oversampling factor (candidates = budget * setSize). */
    std::uint64_t setSize = 4;
    /** Two-phase: number of proxy-quantile strata (H). */
    std::uint64_t strata = 4;
    /** Two-phase: pilot measurements per stratum (p). */
    std::uint64_t phase1PerStratum = 2;
    /** Seed for ranking-set formation and pilot draws (tie-breaks are
     *  always by candidate index, never by this seed). */
    std::uint64_t rankSeed = 0x7a9c;

    /** Stable one-line description, e.g. "ranked-set[m=4,proxy=ipc]". */
    std::string describe() const;
};

/**
 * Which candidates to measure. `chosen` holds candidate indices in
 * ascending order (= measurement schedule order); `group[i]` is the
 * rank class (ranked-set) or stratum id (two-phase) of `chosen[i]`.
 */
struct SelectionPlan
{
    std::vector<std::size_t> chosen;
    std::vector<std::uint32_t> group;
};

/**
 * Ranked-set selection: partition the candidates into `budget` seeded
 * ranking sets of `opts.setSize`, order each set by (score, index), and
 * take from set j the order statistic of rank j mod m — the repeated
 * subsampling cycle that gives every rank class budget/m measurements.
 * Requires scores.size() == budget * opts.setSize and budget divisible
 * by opts.setSize (see effectiveRankedSetBudget).
 */
SelectionPlan rankedSetSelect(const std::vector<double> &scores,
                              std::uint64_t budget,
                              const EstimatorOptions &opts);

/** Largest multiple of opts.setSize that fits in @p budget (>= m). */
std::uint64_t effectiveRankedSetBudget(std::uint64_t budget,
                                       const EstimatorOptions &opts);

/**
 * Size of the candidate pool an estimator run with measurement budget
 * @p budget (= regimen.numClusters) draws: uniform measures the budget
 * itself, ranked-set draws effective-budget * m, two-phase draws
 * budget * oversampling. A pure function of the options and the budget,
 * so stores, capture keys and job records never carry it.
 */
std::uint64_t estimatorCandidateCount(std::uint64_t budget,
                                      const EstimatorOptions &opts);

/** Candidate -> stratum assignment by proxy-score quantile. */
struct StrataPlan
{
    /** stratumOf[candidate] in [0, strata). */
    std::vector<std::uint32_t> stratumOf;
    /** Candidate count per stratum (sizes differ by at most one). */
    std::vector<std::uint64_t> stratumSize;
};

/**
 * Equal-probability stratification: candidates sorted by (score, index)
 * are split into @p strata contiguous quantile groups.
 */
StrataPlan stratifyByScore(const std::vector<double> &scores,
                           std::uint64_t strata);

/**
 * Phase-1 pilot selection: an independently seeded draw of
 * @p per_stratum distinct candidates from every stratum (all of a
 * stratum when it is smaller than the pilot).
 */
SelectionPlan pilotSelect(const StrataPlan &plan,
                          std::uint64_t per_stratum,
                          std::uint64_t rank_seed);

/**
 * Neyman allocation of @p budget across strata proportional to
 * N_h * sigma_h (falling back to plain proportional when every pilot
 * sigma is zero), rounded by largest remainder and capped at @p cap —
 * the candidates still available per stratum. Deterministic: remainder
 * ties and cap overflow redistribute in ascending stratum order. The
 * returned counts sum to min(budget, sum(cap)).
 */
std::vector<std::uint64_t>
allocateNeyman(const std::vector<double> &sigma,
               const std::vector<std::uint64_t> &stratum_size,
               const std::vector<std::uint64_t> &cap,
               std::uint64_t budget);

/**
 * The final two-phase measurement plan: every pilot cluster plus
 * @p extra_per_stratum seeded additional draws from the not-yet-chosen
 * members of each stratum. Groups carry the stratum id.
 */
SelectionPlan finalStratifiedSelect(
    const StrataPlan &plan, const SelectionPlan &pilot,
    const std::vector<std::uint64_t> &extra_per_stratum,
    std::uint64_t rank_seed);

/**
 * Ranked-set point estimate: the mean of per-rank-class means, with
 * Var = (1/m^2) * sum_i s_i^2 / r_i over the rank classes (each class
 * is an independent SRS of one order statistic). Falls back to the
 * plain SRS standard error when any class has fewer than two
 * measurements. @p ipc and @p rank_class are parallel.
 */
ClusterEstimate rankedSetEstimate(const std::vector<double> &ipc,
                                  const std::vector<std::uint32_t> &rank_class,
                                  std::uint64_t set_size);

/**
 * Stratified point estimate: sum_h W_h * mean_h with W_h the stratum's
 * candidate fraction, Var = sum_h W_h^2 s_h^2 / n_h. Strata measured
 * only once borrow the pooled within-stratum variance. @p ipc and
 * @p stratum are parallel; @p stratum_size are candidate counts.
 */
ClusterEstimate
stratifiedEstimate(const std::vector<double> &ipc,
                   const std::vector<std::uint32_t> &stratum,
                   const std::vector<std::uint64_t> &stratum_size);

/**
 * The per-stratum candidate counts stratifyByScore() would produce for
 * @p candidate_count candidates in @p strata quantile strata — the
 * exact sizes, re-derivable because the split is equal-size by
 * construction.
 */
std::vector<std::uint64_t> quantileStratumSizes(std::uint64_t candidate_count,
                                                std::uint64_t strata);

/**
 * The estimate @p opts calls for over measured clusters @p ipc with
 * estimator groups @p groups (parallel to @p ipc) under measurement
 * budget @p budget (= regimen.numClusters): summarizeClusters() for
 * uniform, rankedSetEstimate() for ranked-set, stratifiedEstimate() over
 * the quantile stratum sizes of the estimatorCandidateCount() pool for
 * two-phase. Direct runs and store replays both estimate through here.
 */
ClusterEstimate estimateFor(const EstimatorOptions &opts,
                            std::uint64_t budget,
                            const std::vector<double> &ipc,
                            const std::vector<std::uint32_t> &groups);

/** Matched-pair comparison of two methods over paired observations. */
struct PairedComparison
{
    /** mean(a - b): positive means a is larger. */
    double meanDiff = 0.0;
    /** Sample standard deviation of the pairwise differences. */
    double stddev = 0.0;
    /** stddev / sqrt(n). */
    double stdErr = 0.0;
    /** Student-t 95% confidence bounds on the mean difference. */
    double ciLow = 0.0;
    double ciHigh = 0.0;
    std::uint64_t pairs = 0;

    /** Does the 95% CI exclude zero (a genuinely differs from b)? */
    bool
    significant() const
    {
        return pairs >= 2 && (ciLow > 0.0 || ciHigh < 0.0);
    }
};

/**
 * Matched-pair 95% confidence interval on mean(a - b); the pairing
 * (same workload, same seed, common random numbers) cancels the
 * between-pair variance that swamps unpaired comparisons. Requires
 * a.size() == b.size(); with fewer than two pairs the interval is
 * degenerate (stdErr 0, bounds at the mean difference).
 */
PairedComparison matchedPairCompare(const std::vector<double> &a,
                                    const std::vector<double> &b);

/**
 * Two-sided 97.5% Student-t quantile (the multiplier for a 95% CI) for
 * @p df degrees of freedom: exact table for df 1..30, then the large-df
 * limit 1.96. df == 0 returns 0 (no interval can be formed).
 */
double tQuantile975(std::uint64_t df);

} // namespace rsr::core

#endif // RSR_CORE_ESTIMATOR_HH
