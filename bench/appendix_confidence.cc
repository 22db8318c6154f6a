/**
 * @file
 * Appendix: 95% confidence interval tests. For every warm-up method in
 * Table 2 and every workload, tests whether the method's cluster-sample
 * confidence interval (mean +/- 1.96 standard errors) contains the true
 * IPC, and prints the full yes/no grid plus the relative-error and
 * simulation-time tables — the three appendix tables of the paper.
 */

#include <cstdio>

#include "bench_common.hh"
#include "util/table.hh"

int
main()
{
    using namespace rsr;
    bench::banner("Appendix: confidence tests, relative error, and time",
                  "Bryan/Rosier/Conte ISPASS'07, Appendix");

    const auto setups = bench::prepareWorkloads(true);

    std::vector<bench::PolicyResults> all;
    for (const std::string &name : core::table2PolicyNames()) {
        const auto policy = core::makePolicyByName(name);
        std::printf("running %-12s ...\n", policy->name().c_str());
        std::fflush(stdout);
        all.push_back(bench::runPolicy(*policy, setups));
    }

    std::vector<std::string> headers{"method"};
    for (const auto &s : setups)
        headers.push_back(s.params.name);

    std::printf("\nConfidence tests (95%% CI contains true IPC?)\n");
    TextTable ci(headers);
    for (const auto &r : all) {
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
    for (const auto &r : all) {
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
    for (const auto &r : all) {
        std::vector<std::string> row{r.name};
        for (const auto &w : r.perWorkload)
            row.push_back(TextTable::num(w.seconds, 3));
        row.push_back(TextTable::num(r.avgSeconds(), 3));
        tt.addRow(row);
    }
    tt.print();
    return 0;
}
