/**
 * @file
 * Figure 9: SimPoint comparison. Runs SimPoint (up to 30 simulation
 * points) at a small and a large interval size, each with and without
 * SMARTS full functional warming while skipping between points, against
 * Reverse State Reconstruction R$BP (20%). The paper's findings: at the
 * small interval SimPoint is fast but badly biased without warm-up (20%
 * error, dropping to 8% with SMARTS warming); larger intervals improve
 * accuracy at a high simulation cost; sampled simulation with R$BP lands
 * at 1.7% average error.
 *
 * Interval sizes scale with our population exactly as the paper's 50K and
 * 10M scale against 6B instructions: "small" matches the sampled cluster
 * size; "large" is 25x larger.
 */

#include <cmath>
#include <cstdio>

#include "bench_common.hh"
#include "util/timer.hh"
#include "simpoint/simpoint.hh"
#include "util/table.hh"

namespace
{

struct Row
{
    std::string name;
    double sumRe = 0;
    double sumSec = 0;
    std::vector<double> perRe;
};

} // namespace

int
main()
{
    using namespace rsr;
    bench::banner("Figure 9: SimPoint comparison",
                  "Bryan/Rosier/Conte ISPASS'07, Figure 9");

    const auto setups = bench::prepareWorkloads(true);
    std::vector<Row> rows;

    for (const std::uint64_t interval : {2000ull, 50'000ull}) {
        // One BBV analysis per workload, shared by the cold/warm runs
        // (SimPoint's phase analysis is hardware independent).
        std::printf("analyzing BBVs at interval %llu ...\n",
                    static_cast<unsigned long long>(interval));
        std::fflush(stdout);
        std::vector<simpoint::SimPointSelection> selections;
        std::vector<double> analysis_seconds;
        for (const auto &s : setups) {
            WallTimer t;
            simpoint::SimPointConfig cfg;
            cfg.intervalSize = interval;
            cfg.maxK = 30;
            selections.push_back(
                simpoint::pickSimPoints(s.program, s.cfg.totalInsts, cfg));
            analysis_seconds.push_back(t.seconds());
        }

        for (const bool warm : {false, true}) {
            Row row;
            row.name = interval == 2000 ? "2K" : "50K";
            if (warm)
                row.name += "-SMARTS";
            std::printf("running SimPoint %-10s ...\n", row.name.c_str());
            std::fflush(stdout);
            for (std::size_t i = 0; i < setups.size(); ++i) {
                const auto r = simpoint::runSimPoints(
                    setups[i].program, selections[i], warm,
                    setups[i].cfg.machine);
                const double re =
                    std::fabs(r.ipc - setups[i].trueIpc) /
                    setups[i].trueIpc;
                row.sumRe += re;
                row.sumSec += r.seconds;
                row.perRe.push_back(re);
            }
            rows.push_back(std::move(row));
        }
    }

    // Sampled-simulation reference: R$BP (20%).
    {
        Row row;
        row.name = "R$BP (20%)";
        std::printf("running R$BP (20%%)   ...\n");
        std::fflush(stdout);
        auto policy = core::makePolicyByName("rsr20");
        const auto res = bench::runPolicy(*policy, setups);
        for (std::size_t i = 0; i < setups.size(); ++i) {
            const double re = res.perWorkload[i].estimate.relativeError(
                setups[i].trueIpc);
            row.sumRe += re;
            row.sumSec += res.perWorkload[i].seconds;
            row.perRe.push_back(re);
        }
        rows.push_back(std::move(row));
    }

    const auto n = static_cast<double>(setups.size());
    std::printf("\nFigure 9 — averages over %zu workloads\n",
                setups.size());
    TextTable avg({"method", "rel-error", "sim time(s)"});
    for (const auto &r : rows)
        avg.addRow({r.name, TextTable::num(r.sumRe / n),
                    TextTable::num(r.sumSec / n, 3)});
    avg.print();

    std::printf("\nper-workload relative error\n");
    std::vector<std::string> headers{"method"};
    for (const auto &s : setups)
        headers.push_back(s.params.name);
    TextTable per(headers);
    for (const auto &r : rows) {
        std::vector<std::string> row{r.name};
        for (double re : r.perRe)
            row.push_back(TextTable::num(re));
        per.addRow(row);
    }
    per.print();
    return 0;
}
