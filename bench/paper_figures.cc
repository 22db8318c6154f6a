/**
 * @file
 * Table 1, Figures 5-9 and the Appendix of the paper, from one run of
 * the Table-2 method matrix. The paper draws all of them from one
 * experiment: every Table-2 warm-up method on the same nine workloads,
 * cluster positions fixed per workload. So this program prepares the
 * workloads and their true IPC once, runs the 16 methods once per
 * workload (bench::runMatrix), and prints each table and figure as a
 * view of that matrix. Only Figure 9's SimPoint rows run anything more.
 *
 * Table 1: per workload, the full-trace IPC used as the accuracy
 * baseline and the sampling regimen (clusters x cluster size) every
 * sampled method uses.
 *
 * Figure 5: cache warm-up only. Reverse Trace Cache Reconstruction at
 * 20/40/80/100% (R$) against SMARTS cache-only warming (S$); the branch
 * predictor is left stale. The paper: R$ tracks S$ closely in relative
 * error (3.3% vs 3.1%), R$ (20%) is the fastest (1.41x over S$), and a
 * higher percentage buys little accuracy because temporal locality makes
 * the early skip-region references ineffectual.
 *
 * Figure 6: branch-predictor warm-up only. Reverse Trace Branch
 * Predictor Reconstruction (RBP, on demand over the logged skip-region
 * trace) against SMARTS predictor-only warming (SBP); the caches are
 * left stale. The paper: both land near each other (22.3% vs 22.2%; the
 * large residual is the cold caches), RBP 1.48x faster than SBP.
 *
 * Figure 7: combined cache + predictor warm-up. None, fixed-period
 * warming at 20/40/80%, SMARTS of both components (S$BP) and Reverse
 * State Reconstruction of both at 20/40/80/100% (R$BP). The paper: None
 * is cheapest and worst (23% error); S$BP is most accurate (0.9%) and
 * slowest; R$BP runs 1.64/1.51/1.25x faster at 20/40/80% with accuracy
 * close to SMARTS; fixed-period is competitive at 20%, but the reverse
 * methods win as percentages rise because logging is paid regardless.
 *
 * Figure 8: R$BP at 20/40/80/100% against S$BP per workload, plus R$BP
 * (20%)'s relative error with respect to the SMARTS estimate. The paper:
 * 0.3% on average (min 0.01%, max 1.9%); time grows with the percentage.
 *
 * Figure 9: SimPoint (up to 30 simulation points) at a small and a large
 * interval, each with and without SMARTS functional warming between
 * points, against R$BP (20%). The paper: at the small interval SimPoint
 * is fast but badly biased without warm-up (20% error, 8% with SMARTS
 * warming); larger intervals improve accuracy at a high cost; sampled
 * simulation with R$BP lands at 1.7%. The intervals scale with our
 * population as the paper's 50K and 10M scale against 6B instructions:
 * "small" matches the sampled cluster size, "large" is 25x larger.
 *
 * Appendix: for every method and workload, whether the 95% confidence
 * interval (mean +/- 1.96 standard errors) contains the true IPC, and
 * the full relative-error and simulation-time tables.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "bench_common.hh"
#include "simpoint/simpoint.hh"
#include "util/table.hh"

namespace
{

using namespace rsr;
using bench::PolicyResults;
using bench::WorkloadSetup;

void
printTable1(const std::vector<WorkloadSetup> &setups)
{
    TextTable t({"workload", "true IPC", "clusters", "cluster size",
                 "sampled insts", "population", "full-sim time(s)"});
    for (const auto &s : setups) {
        t.addRow({s.params.name, TextTable::num(s.trueIpc),
                  std::to_string(s.cfg.regimen.numClusters),
                  std::to_string(s.cfg.regimen.clusterSize),
                  std::to_string(s.cfg.regimen.sampledInsts()),
                  std::to_string(s.cfg.totalInsts),
                  TextTable::num(s.trueSeconds, 2)});
    }
    t.print();
}

/** The paper's headline metric: per-workload relative error of R$BP
 *  (20%) with respect to the SMARTS estimate, not the true IPC. */
void
printRelativeToSmarts(const std::vector<PolicyResults> &matrix,
                      const std::vector<WorkloadSetup> &setups)
{
    const PolicyResults &rs = bench::matrixRow(matrix, "smarts");
    const PolicyResults &rr = bench::matrixRow(matrix, "rsr20");
    std::printf("\nR$BP (20%%) relative error with respect to SMARTS\n");
    TextTable t({"workload", "S$BP IPC", "R$BP(20%) IPC", "RE vs SMARTS"});
    double sum = 0, worst = 0;
    for (std::size_t i = 0; i < setups.size(); ++i) {
        const double a = rs.perWorkload[i].estimate.mean;
        const double b = rr.perWorkload[i].estimate.mean;
        const double re = std::fabs(a - b) / a;
        sum += re;
        worst = std::max(worst, re);
        t.addRow({setups[i].params.name, TextTable::num(a),
                  TextTable::num(b), TextTable::num(re)});
    }
    t.print();
    std::printf("average RE vs SMARTS: %.4f   max: %.4f   (paper: 0.003 "
                "avg, 0.019 max)\n",
                sum / static_cast<double>(setups.size()), worst);
}

/** One Figure-9 row: relative error and time per workload. */
struct SimPointRow
{
    std::string name;
    std::vector<double> perRe;
    std::vector<double> perSec;
};

void
printFigure9(const std::vector<PolicyResults> &matrix,
             const std::vector<WorkloadSetup> &setups)
{
    std::vector<SimPointRow> rows;
    for (const std::uint64_t interval : {2000ull, 50'000ull}) {
        // One BBV analysis per workload, shared by the cold/warm runs
        // (SimPoint's phase analysis is hardware independent).
        std::printf("analyzing BBVs at interval %llu ...\n",
                    static_cast<unsigned long long>(interval));
        std::fflush(stdout);
        std::vector<simpoint::SimPointSelection> selections;
        for (const auto &s : setups) {
            simpoint::SimPointConfig cfg;
            cfg.intervalSize = interval;
            cfg.maxK = 30;
            selections.push_back(
                simpoint::pickSimPoints(s.program, s.cfg.totalInsts, cfg));
        }

        for (const bool warm : {false, true}) {
            SimPointRow row;
            row.name = interval == 2000 ? "2K" : "50K";
            if (warm)
                row.name += "-SMARTS";
            std::printf("running SimPoint %-10s ...\n", row.name.c_str());
            std::fflush(stdout);
            for (std::size_t i = 0; i < setups.size(); ++i) {
                const auto r = simpoint::runSimPoints(
                    setups[i].program, selections[i], warm,
                    setups[i].cfg.machine);
                row.perRe.push_back(std::fabs(r.ipc - setups[i].trueIpc) /
                                    setups[i].trueIpc);
                row.perSec.push_back(r.seconds);
            }
            rows.push_back(std::move(row));
        }
    }

    // Sampled-simulation reference: R$BP (20%), from the matrix.
    const PolicyResults &rsr20 = bench::matrixRow(matrix, "rsr20");
    SimPointRow ref{rsr20.name, {}, {}};
    for (std::size_t i = 0; i < setups.size(); ++i) {
        ref.perRe.push_back(rsr20.perWorkload[i].estimate.relativeError(
            setups[i].trueIpc));
        ref.perSec.push_back(rsr20.perWorkload[i].seconds);
    }
    rows.push_back(std::move(ref));

    const auto n = static_cast<double>(setups.size());
    auto mean = [n](const std::vector<double> &v) {
        return std::accumulate(v.begin(), v.end(), 0.0) / n;
    };
    std::printf("\nFigure 9 — averages over %zu workloads\n",
                setups.size());
    TextTable avg({"method", "rel-error", "sim time(s)"});
    for (const auto &r : rows)
        avg.addRow({r.name, TextTable::num(mean(r.perRe)),
                    TextTable::num(mean(r.perSec), 3)});
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
}

void
printAppendix(const std::vector<PolicyResults> &matrix,
              const std::vector<WorkloadSetup> &setups)
{
    std::vector<std::string> headers{"method"};
    for (const auto &s : setups)
        headers.push_back(s.params.name);

    std::printf("\nConfidence tests (95%% CI contains true IPC?)\n");
    TextTable ci(headers);
    for (const auto &r : matrix) {
        std::vector<std::string> row{r.name};
        for (std::size_t i = 0; i < setups.size(); ++i)
            row.push_back(
                r.perWorkload[i].estimate.passesCi(setups[i].trueIpc)
                    ? "yes"
                    : "no");
        ci.addRow(row);
    }
    ci.print();

    std::printf("\nRelative error\n");
    headers.push_back("AVG");
    TextTable re(headers);
    for (const auto &r : matrix) {
        std::vector<std::string> row{r.name};
        for (std::size_t i = 0; i < setups.size(); ++i)
            row.push_back(TextTable::num(
                r.perWorkload[i].estimate.relativeError(
                    setups[i].trueIpc)));
        row.push_back(TextTable::num(r.avgRelErr(setups)));
        re.addRow(row);
    }
    re.print();

    std::printf("\nSimulation time (s)\n");
    TextTable tt(headers);
    for (const auto &r : matrix) {
        std::vector<std::string> row{r.name};
        for (const auto &w : r.perWorkload)
            row.push_back(TextTable::num(w.seconds, 3));
        row.push_back(TextTable::num(r.avgSeconds(), 3));
        tt.addRow(row);
    }
    tt.print();
}

} // namespace

int
main()
{
    bench::banner("Table 1: true IPC and sampling regimen per workload",
                  "Bryan/Rosier/Conte ISPASS'07, Table 1");
    const auto setups = bench::prepareWorkloads(true);
    printTable1(setups);

    const auto matrix =
        bench::runMatrix(core::table2PolicyNames(), setups);

    bench::banner("Figure 5: cache warm-up only (R$ vs S$)",
                  "Bryan/Rosier/Conte ISPASS'07, Figure 5");
    bench::printFigure("Figure 5", matrix,
                       {"rcache20", "rcache40", "rcache80", "rcache100",
                        "scache"},
                       setups, "scache");

    bench::banner("Figure 6: branch predictor warm-up only (RBP vs SBP)",
                  "Bryan/Rosier/Conte ISPASS'07, Figure 6");
    bench::printFigure("Figure 6", matrix, {"rbp", "sbp"}, setups, "sbp");

    bench::banner("Figure 7: combined cache and branch predictor warm-up",
                  "Bryan/Rosier/Conte ISPASS'07, Figure 7");
    bench::printFigure("Figure 7", matrix,
                       {"none", "fp20", "fp40", "fp80", "smarts", "rsr20",
                        "rsr40", "rsr80", "rsr100"},
                       setups, "smarts");

    bench::banner("Figure 8: Reverse State Reconstruction vs SMARTS",
                  "Bryan/Rosier/Conte ISPASS'07, Figure 8");
    bench::printFigure("Figure 8", matrix,
                       {"rsr20", "rsr40", "rsr80", "rsr100", "smarts"},
                       setups, "smarts");
    printRelativeToSmarts(matrix, setups);

    bench::banner("Figure 9: SimPoint comparison",
                  "Bryan/Rosier/Conte ISPASS'07, Figure 9");
    printFigure9(matrix, setups);

    bench::banner("Appendix: confidence tests, relative error, and time",
                  "Bryan/Rosier/Conte ISPASS'07, Appendix");
    printAppendix(matrix, setups);
    return 0;
}
