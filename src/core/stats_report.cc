#include "stats_report.hh"

#include <cstdio>

namespace rsr::core
{

namespace
{

void
line(std::string &out, const char *name, double value,
     const char *note = "")
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%-40s %18.6f  %s\n", name, value,
                  note);
    out += buf;
}

void
line(std::string &out, const char *name, std::uint64_t value,
     const char *note = "")
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%-40s %18llu  %s\n", name,
                  static_cast<unsigned long long>(value), note);
    out += buf;
}

void
cacheStats(std::string &out, const char *prefix, const cache::Cache &c)
{
    const auto &s = c.stats();
    std::string p(prefix);
    line(out, (p + ".hits").c_str(), s.hits);
    line(out, (p + ".misses").c_str(), s.misses);
    const std::uint64_t accesses = s.hits + s.misses;
    line(out, (p + ".miss_rate").c_str(),
         accesses ? static_cast<double>(s.misses) / accesses : 0.0);
    line(out, (p + ".fills").c_str(), s.fills);
    line(out, (p + ".writebacks").c_str(), s.writebacks);
    line(out, (p + ".recon_applied").c_str(), s.reconApplied,
         "reverse-reconstruction inserts");
    line(out, (p + ".recon_ignored").c_str(), s.reconIgnored,
         "ineffectual logged refs skipped");
}

void
busStats(std::string &out, const char *prefix, const cache::Bus &b)
{
    const auto &s = b.stats();
    std::string p(prefix);
    line(out, (p + ".transfers").c_str(), s.transfers);
    line(out, (p + ".busy_cycles").c_str(), s.busyCycles);
    line(out, (p + ".wait_cycles").c_str(), s.waitCycles, "arbitration");
}

} // namespace

std::string
formatStats(const Machine &machine, const uarch::RunResult &run)
{
    std::string out;
    out += "---------- begin stats ----------\n";
    line(out, "core.insts", run.insts);
    line(out, "core.cycles", run.cycles);
    line(out, "core.ipc", run.ipc());
    line(out, "core.loads", run.loads);
    line(out, "core.stores", run.stores);
    line(out, "core.forwarded_loads", run.forwardedLoads);
    line(out, "core.cond_branches", run.condBranches);
    line(out, "core.branch_mispredicts", run.branchMispredicts);
    line(out, "core.mispredict_rate",
         run.condBranches ? static_cast<double>(run.branchMispredicts) /
                                run.condBranches
                          : 0.0,
         "mispredicts / conditional branches");
    line(out, "core.dispatch_stall_cycles", run.dispatchStallCycles);
    line(out, "core.fetch_blocked_cycles", run.fetchBlockedCycles);

    cacheStats(out, "il1", machine.hier.il1());
    cacheStats(out, "dl1", machine.hier.dl1());
    cacheStats(out, "l2", machine.hier.l2());
    busStats(out, "l1bus", machine.hier.l1Bus());
    busStats(out, "l2bus", machine.hier.l2Bus());
    line(out, "hier.warm_updates", machine.hier.warmUpdates(),
         "functional warming work");

    const auto &bs = machine.bp.stats();
    line(out, "bp.lookups", bs.lookups);
    line(out, "bp.cond_lookups", bs.condLookups);
    line(out, "bp.warm_updates", bs.warmUpdates);
    line(out, "bp.ghr", std::uint64_t{machine.bp.ghr()});
    out += "---------- end stats ----------\n";
    return out;
}

std::vector<RunMetric>
runMetrics(const SampledResult &r)
{
    using K = MetricKind;
    const PhaseCounters &p = r.phases;
    const WarmupWork &w = r.warmWork;
    return {
        {"ipc", r.estimate.mean, K::Estimate},
        {"ci_low", r.estimate.ciLow, K::Estimate, "95% confidence interval"},
        {"ci_high", r.estimate.ciHigh, K::Estimate},
        {"aggregate_ipc", r.aggregateIpc(), K::Estimate},
        {"clusters", std::uint64_t{r.clusterIpc.size()}, K::Estimate},
        {"seconds", r.seconds, K::WallClock},
        {"phase.skip.insts", r.skippedInsts, K::Work,
         "functionally fast-forwarded"},
        {"phase.skip.seconds", p.skipSeconds, K::WallClock},
        {"phase.reconstruct.seconds", p.reconstructSeconds, K::WallClock,
         "cluster-boundary warm-up"},
        {"phase.capture.seconds", p.captureSeconds, K::WallClock,
         "warm-state copy + trace recording"},
        {"phase.measure.insts", r.hotInsts, K::Work, "cycle-accurate"},
        {"phase.measure.seconds", p.measureSeconds, K::WallClock,
         "summed across replay workers"},
        {"phase.peak_snapshot_bytes", p.peakSnapshotBytes, K::Work,
         "store captures only"},
        {"warm.updates", w.totalUpdates(), K::Work,
         "functional warming + reverse reconstruction"},
        {"warm.logged_records", w.loggedRecords, K::Work},
        {"warm.peak_log_bytes", w.peakLogBytes, K::Work},
    };
}

std::string
formatRunMetrics(const std::vector<RunMetric> &metrics)
{
    std::string out;
    for (const RunMetric &m : metrics)
        std::visit([&](auto value) { line(out, m.name, value, m.note); },
                   m.value);
    return out;
}

} // namespace rsr::core
