#include "bench_common.hh"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "harness/parallel_run.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace rsr::bench
{

core::SamplingRegimen
regimenFor(const std::string &name)
{
    // Scaled analogue of the paper's Table-1 regimens: cluster sizes and
    // counts vary per workload, sampling a few percent of the population.
    if (name == "ammp")
        return {60, 4000};
    if (name == "art")
        return {60, 4000};
    if (name == "gcc")
        return {80, 3000};
    if (name == "mcf")
        return {60, 4000};
    if (name == "parser")
        return {80, 3000};
    if (name == "perl")
        return {80, 3000};
    if (name == "twolf")
        return {80, 3000};
    if (name == "vortex")
        return {80, 3000};
    if (name == "vpr")
        return {70, 3500};
    rsr_throw_user("no regimen for workload ", name);
}

std::vector<WorkloadSetup>
prepareWorkloads(bool need_true_ipc, std::uint64_t total_insts)
{
    std::vector<WorkloadSetup> out;
    for (auto &params : workload::standardWorkloadParams()) {
        WorkloadSetup s;
        s.params = params;
        s.program = workload::buildSynthetic(params);
        s.cfg.totalInsts = total_insts;
        s.cfg.regimen = regimenFor(params.name);
        s.cfg.machine = core::MachineConfig::scaledDefault();
        s.cfg.scheduleSeed = 0x5eed0000 + std::hash<std::string>{}(
                                              params.name) % 0xffff;
        if (need_true_ipc) {
            const auto full =
                core::runFull(s.program, total_insts, s.cfg.machine);
            s.trueIpc = full.ipc();
            s.trueSeconds = full.seconds;
        }
        out.push_back(std::move(s));
    }
    return out;
}

double
PolicyResults::avgRelErr(const std::vector<WorkloadSetup> &setups) const
{
    double sum = 0;
    for (std::size_t i = 0; i < perWorkload.size(); ++i)
        sum += perWorkload[i].estimate.relativeError(setups[i].trueIpc);
    return sum / static_cast<double>(perWorkload.size());
}

double
PolicyResults::avgSeconds() const
{
    double sum = 0;
    for (const auto &r : perWorkload)
        sum += r.seconds;
    return sum / static_cast<double>(perWorkload.size());
}

double
PolicyResults::avgWarmUpdates() const
{
    double sum = 0;
    for (const auto &r : perWorkload)
        sum += static_cast<double>(r.warmWork.totalUpdates());
    return sum / static_cast<double>(perWorkload.size());
}

double
PolicyResults::avgLoggedRecords() const
{
    double sum = 0;
    for (const auto &r : perWorkload)
        sum += static_cast<double>(r.warmWork.loggedRecords);
    return sum / static_cast<double>(perWorkload.size());
}

unsigned
PolicyResults::ciPasses(const std::vector<WorkloadSetup> &setups) const
{
    unsigned n = 0;
    for (std::size_t i = 0; i < perWorkload.size(); ++i)
        n += perWorkload[i].estimate.passesCi(setups[i].trueIpc) ? 1 : 0;
    return n;
}

std::vector<PolicyResults>
runMatrix(const std::vector<std::string> &policies,
          const std::vector<WorkloadSetup> &setups)
{
    std::vector<PolicyResults> matrix(policies.size());
    for (const WorkloadSetup &s : setups) {
        std::printf("running %zu methods on %-8s ...\n", policies.size(),
                    s.params.name.c_str());
        std::fflush(stdout);
        // Solo runs, not a sweep: the figures' speedup columns compare
        // each method's own wall time, functional pass included. The
        // lower of two runs' times is kept.
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const auto policy = core::makePolicyByName(policies[p]);
            const auto run = [&] {
                return harness::runSampledParallel(
                    s.program, *core::makePolicyByName(policies[p]), s.cfg,
                    1);
            };
            core::SampledResult r = run();
            r.seconds = std::min(r.seconds, run().seconds);
            matrix[p].cliName = policies[p];
            matrix[p].name = policy->name();
            matrix[p].perWorkload.push_back(std::move(r));
        }
    }
    return matrix;
}

const PolicyResults &
matrixRow(const std::vector<PolicyResults> &matrix,
          const std::string &cli_name)
{
    for (const PolicyResults &r : matrix)
        if (r.cliName == cli_name)
            return r;
    rsr_throw_user("no matrix row for policy ", cli_name);
}

void
banner(const std::string &title, const std::string &paper_ref)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("Reproduces: %s\n", paper_ref.c_str());
    std::printf("==============================================================\n");
}

harness::JsonWriter
benchJson(const std::string &bench, unsigned jobs)
{
    harness::JsonWriter j;
    j.put("bench", bench)
        .put("cores", std::uint64_t{std::thread::hardware_concurrency()})
        .put("jobs", std::uint64_t{jobs});
    return j;
}

void
printFigure(const std::string &title,
            const std::vector<PolicyResults> &matrix,
            const std::vector<std::string> &policies,
            const std::vector<WorkloadSetup> &setups,
            const std::string &speedup_baseline)
{
    std::vector<const PolicyResults *> all;
    for (const std::string &name : policies)
        all.push_back(&matrixRow(matrix, name));
    const double baseline_seconds =
        matrixRow(matrix, speedup_baseline).avgSeconds();

    std::printf("\n%s — averages over %zu workloads\n", title.c_str(),
                setups.size());
    TextTable avg({"method", "rel-error", "time(s)", "warm-updates",
                   "logged", "CI-pass", "speedup"});
    for (const PolicyResults *r : all) {
        avg.addRow({r->name, TextTable::num(r->avgRelErr(setups)),
                    TextTable::num(r->avgSeconds(), 3),
                    TextTable::num(r->avgWarmUpdates(), 0),
                    TextTable::num(r->avgLoggedRecords(), 0),
                    std::to_string(r->ciPasses(setups)) + "/" +
                        std::to_string(setups.size()),
                    TextTable::num(baseline_seconds / r->avgSeconds(), 2)});
    }
    avg.print();

    std::printf("\nper-workload relative error\n");
    std::vector<std::string> headers{"method"};
    for (const auto &s : setups)
        headers.push_back(s.params.name);
    TextTable per(headers);
    for (const PolicyResults *r : all) {
        std::vector<std::string> row{r->name};
        for (std::size_t i = 0; i < setups.size(); ++i)
            row.push_back(TextTable::num(
                r->perWorkload[i].estimate.relativeError(setups[i].trueIpc)));
        per.addRow(row);
    }
    per.print();

    std::printf("\nper-workload simulation time (s)\n");
    TextTable times(headers);
    for (const PolicyResults *r : all) {
        std::vector<std::string> row{r->name};
        for (const auto &w : r->perWorkload)
            row.push_back(TextTable::num(w.seconds, 3));
        times.addRow(row);
    }
    times.print();
}

} // namespace rsr::bench
