/**
 * @file
 * Perf-smoke gate: compare a freshly measured hot-loop benchmark record
 * against the committed baseline.
 *
 * Only the machine-normalized `norm_*` keys are compared (absolute
 * rates vary with the runner); the gate fails if any normalized metric
 * regresses by more than the tolerance. Improvements never fail — the
 * baseline is refreshed deliberately, not ratcheted automatically.
 *
 *   bench_compare --baseline BENCH_hot_loops.json \
 *                 --current build/bench/BENCH_hot_loops.json \
 *                 [--tolerance 0.15]
 *
 * Two records are only comparable when they describe the same
 * experiment: a `jobs` mismatch always means the wrong files are being
 * compared (exit 3, with the offending values). A `cores` mismatch is
 * fine for machine-normalized metrics — that is their whole point —
 * unless the records make a scaling claim (they carry
 * `parallel_scaling_valid`), where the core count is part of the
 * experiment: then a mismatch is also typed INCOMPARABLE (exit 3).
 * When either scaling record says `parallel_scaling_valid=false`
 * (a 1-core runner), the comparison is skipped with exit 0 — an honest
 * "cannot measure scaling here" must not fail the gate.
 *
 * `bench_compare --help` prints the exit-status table for CI authors.
 */

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "harness/json.hh"
#include "util/args.hh"
#include "util/error.hh"
#include "util/fileio.hh"

namespace
{

std::map<std::string, std::string>
loadRecord(const std::string &path)
{
    // A wrong path is the usual CI slip; name the tool, as the
    // INCOMPARABLE lines do.
    if (!rsr::fileExists(path))
        rsr_throw_user("bench_compare: no record at ", path);
    const auto bytes = rsr::readFileBytes(path);
    return rsr::harness::parseJsonObject(
        std::string(bytes.begin(), bytes.end()));
}

int
run(const rsr::ArgParser &args)
{
    using namespace rsr;
    const std::string base_path = args.get("baseline");
    const std::string cur_path = args.get("current");
    const double tolerance = args.getDouble("tolerance", 0.15);
    if (base_path.empty() || cur_path.empty())
        rsr_throw_user("usage: bench_compare --baseline FILE --current "
                       "FILE [--tolerance 0.15]");

    const auto baseline = loadRecord(base_path);
    const auto current = loadRecord(cur_path);

    // Typed comparability checks before any metric math: silently
    // comparing records of different experiments yields verdicts that
    // are worse than no gate at all.
    const auto field = [](const std::map<std::string, std::string> &rec,
                          const char *key) {
        const auto it = rec.find(key);
        return it == rec.end() ? std::string() : it->second;
    };
    const std::string base_jobs = field(baseline, "jobs");
    const std::string cur_jobs = field(current, "jobs");
    if (base_jobs != cur_jobs) {
        std::fprintf(stderr,
                     "bench_compare: INCOMPARABLE records: baseline %s "
                     "ran with jobs=%s but current %s ran with jobs=%s; "
                     "regenerate one side with the other's job count "
                     "(or point --baseline/--current at the right "
                     "files)\n",
                     base_path.c_str(),
                     base_jobs.empty() ? "<missing>" : base_jobs.c_str(),
                     cur_path.c_str(),
                     cur_jobs.empty() ? "<missing>" : cur_jobs.c_str());
        return 3;
    }
    const bool scaling_record =
        baseline.count("parallel_scaling_valid") != 0 ||
        current.count("parallel_scaling_valid") != 0;
    if (scaling_record) {
        // An honest 1-core record cannot gate scaling: skip, loudly.
        if (field(baseline, "parallel_scaling_valid") == "false" ||
            field(current, "parallel_scaling_valid") == "false") {
            std::printf("bench_compare: skipping scaling comparison — "
                        "parallel_scaling_valid=false (baseline cores=%s"
                        ", current cores=%s); rerun on a multicore "
                        "machine for an enforceable record\n",
                        field(baseline, "cores").c_str(),
                        field(current, "cores").c_str());
            return 0;
        }
        // For scaling records the core count is part of the experiment,
        // not machine noise the norm_* trick cancels.
        if (field(baseline, "cores") != field(current, "cores")) {
            std::fprintf(stderr,
                         "bench_compare: INCOMPARABLE scaling records: "
                         "baseline measured on %s core(s), current on "
                         "%s; scaling efficiency is only comparable on "
                         "matching core counts — regenerate the "
                         "baseline on this runner class\n",
                         field(baseline, "cores").c_str(),
                         field(current, "cores").c_str());
            return 3;
        }
    }

    std::printf("%-12s %12s %12s %9s  %s\n", "metric", "baseline",
                "current", "ratio", "verdict");
    bool ok = true;
    unsigned compared = 0;
    for (const auto &[key, base_text] : baseline) {
        if (key.rfind("norm_", 0) != 0)
            continue;
        ++compared;
        const auto it = current.find(key);
        if (it == current.end()) {
            std::printf("%-12s %12s %12s %9s  MISSING\n", key.c_str(),
                        base_text.c_str(), "-", "-");
            ok = false;
            continue;
        }
        const double base = std::strtod(base_text.c_str(), nullptr);
        const double cur = std::strtod(it->second.c_str(), nullptr);
        if (base <= 0.0) {
            std::printf("%-12s %12s %12s %9s  BAD-BASELINE\n",
                        key.c_str(), base_text.c_str(),
                        it->second.c_str(), "-");
            ok = false;
            continue;
        }
        const double ratio = cur / base;
        const bool pass = ratio >= 1.0 - tolerance;
        std::printf("%-12s %12.4f %12.4f %8.3fx  %s\n", key.c_str(),
                    base, cur, ratio, pass ? "ok" : "REGRESSED");
        ok = ok && pass;
    }
    if (compared == 0) {
        std::printf("no norm_* metrics found in %s\n", base_path.c_str());
        ok = false;
    }
    std::printf("%s (tolerance %.0f%%)\n",
                ok ? "perf-smoke: within tolerance"
                   : "perf-smoke: REGRESSION",
                tolerance * 100.0);
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const rsr::Program bench_compare{
        "bench_compare",
        {{"bench_compare",
          "compare a fresh benchmark record's norm_* metrics with the "
          "baseline",
          {{"baseline", "FILE"}, {"current", "FILE"}, {"tolerance", "F"}},
          run}},
        "Only the machine-normalized norm_* metrics are compared (default\n"
        "tolerance 0.15). Improvements never fail; the baseline is\n"
        "refreshed deliberately, not ratcheted automatically.\n"
        "\n"
        "exit status:\n"
        "  0  every norm_* metric within tolerance, or the scaling\n"
        "     comparison was honestly skipped"
        " (parallel_scaling_valid=false)\n"
        "  1  regression, metric missing from the current record, bad\n"
        "     baseline value, or no norm_* metrics to compare\n"
        "  2  error: unreadable file, malformed JSON, or bad flags\n"
        "  3  INCOMPARABLE records: jobs mismatch, or cores mismatch\n"
        "     between parallel-scaling records\n"};
    return rsr::runProgram(bench_compare, argc, argv, 2);
}
