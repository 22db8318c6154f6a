/**
 * @file
 * Entry point and shared utilities of the repository benchmark.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1 [--spans F]
 *
 * --trace 0 times the workload's user path for S seconds with tracing
 * off and prints the end-to-end metrics; --trace 1 runs the traced
 * replica of the same path and prints the per-layer metrics. Either way
 * the last line of stdout is one JSON object:
 * {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
 */

#include "perfbench.hh"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>

namespace rsr::perfbench
{

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t tag)
{
    // splitmix64 finaliser over the pair.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + tag + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

// ---- Report ------------------------------------------------------------

void
Report::metric(const std::string &name, double value, const std::string &unit)
{
    if (!std::isfinite(value)) {
        // Not representable in JSON, and a measurement gone wrong.
        fail("metric " + name + " is not finite");
        value = -1.0;
    }
    metrics_.push_back({name, value, unit});
}

void
Report::attempt(bool ok)
{
    ++attempted_;
    if (!ok)
        ++failed_;
}

void
Report::fail(const std::string &what)
{
    correct_ = false;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

std::string
Report::json() const
{
    std::string out = "{\"correct\": ";
    out += correct_ && failed_ == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", m.value);
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

// ---- Tracer ------------------------------------------------------------

TraceContext &
traceContext()
{
    thread_local TraceContext ctx;
    return ctx;
}

Tracer::Scope::Scope(Tracer *tracer, const char *name, std::uint64_t parent)
    : tracer_(tracer), name_(name)
{
    if (!tracer_)
        return;
    TraceContext &ctx = traceContext();
    outerSpan_ = ctx.span;
    outerOp_ = ctx.op;
    parent_ = parent ? parent : ctx.span;
    op_ = parent ? tracer_->opOf(parent) : ctx.op;
    id_ = tracer_->nextId(op_);
    ctx.span = id_;
    ctx.op = op_;
    start_ = nowSeconds();
}

Tracer::Scope::~Scope()
{
    if (!tracer_)
        return;
    tracer_->add({id_, parent_, op_, name_, start_, nowSeconds()});
    TraceContext &ctx = traceContext();
    ctx.span = outerSpan_;
    ctx.op = outerOp_;
}

std::uint64_t
Tracer::beginOp()
{
    std::lock_guard<std::mutex> lock(mu);
    traceContext() = {0, ++lastOp_};
    return lastOp_;
}

std::uint64_t
Tracer::nextId(std::uint64_t op)
{
    std::lock_guard<std::mutex> lock(mu);
    opOfSpan_[++lastId_] = op;
    return lastId_;
}

std::uint64_t
Tracer::opOf(std::uint64_t span) const
{
    std::lock_guard<std::mutex> lock(mu);
    const auto it = opOfSpan_.find(span);
    return it == opOfSpan_.end() ? 0 : it->second;
}

void
Tracer::add(Span span)
{
    std::lock_guard<std::mutex> lock(mu);
    spans_.push_back(std::move(span));
}

void
Tracer::record(const char *name, double start, double end,
               std::uint64_t parent)
{
    const std::uint64_t op = opOf(parent);
    add({nextId(op), parent, op, name, start, end});
}

void
Tracer::count(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mu);
    counters_[name] += value;
}

void
Tracer::peak(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mu);
    peaks_[name] = std::max(peaks_[name], value);
}

void
Tracer::sample(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mu);
    samples_[name].push_back(value);
}

double
Tracer::peakOf(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu);
    const auto it = peaks_.find(name);
    return it == peaks_.end() ? 0.0 : it->second;
}

std::vector<double>
Tracer::samples(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu);
    const auto it = samples_.find(name);
    return it == samples_.end() ? std::vector<double>{} : it->second;
}

double
Tracer::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
}

double
Tracer::total(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu);
    double sum = 0.0;
    for (const Span &s : spans_)
        if (s.name == name)
            sum += s.end - s.start;
    return sum;
}

std::uint64_t
Tracer::spans(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu);
    return static_cast<std::uint64_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [&](const Span &s) { return s.name == name; }));
}

double
Tracer::unattributedFrac(std::uint64_t first_op) const
{
    std::lock_guard<std::mutex> lock(mu);
    std::map<std::uint64_t, double> covered;
    double roots = 0.0;
    for (const Span &s : spans_)
        if (s.op >= first_op && (s.name == "op" || s.name == "task")) {
            covered[s.id] = 0.0;
            roots += s.end - s.start;
        }
    for (const Span &s : spans_) {
        const auto it = covered.find(s.parent);
        // Only same-thread children cover a root: a pool task runs
        // beside its op, and queueing before it starts is waiting.
        if (it != covered.end() && s.name != "task" &&
            s.name != "harness.pool.start_wait")
            it->second += s.end - s.start;
    }
    double inside = 0.0;
    for (const auto &kv : covered)
        inside += kv.second;
    return roots > 0.0 ? (roots - inside) / roots : 0.0;
}

void
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu);
    double origin = spans_.empty() ? 0.0 : spans_.front().start;
    for (const Span &s : spans_)
        origin = std::min(origin, s.start);
    std::ofstream out(path);
    out << std::fixed << std::setprecision(3);
    for (const Span &s : spans_)
        out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"op\":" << s.op << ",\"name\":\"" << s.name
            << "\",\"start_us\":" << (s.start - origin) * 1e6
            << ",\"end_us\":" << (s.end - origin) * 1e6 << "}\n";
}

} // namespace rsr::perfbench

namespace
{

using namespace rsr;
using namespace rsr::perfbench;

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload table2|design_sweep|serve_mix "
                 "--seed N --seconds S --trace 0|1 "
                 "[--spans FILE]\n",
                 why);
    return 2;
}

/** Machine-wide CPU ticks so far: {all, stolen by the hypervisor}. */
std::pair<double, double>
cpuTicks()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    double v = 0.0, all = 0.0, steal = 0.0;
    stat >> cpu;
    for (int k = 0; k < 8 && stat >> v; ++k) {
        all += v;
        steal = k == 7 ? v : steal;
    }
    return {all, steal};
}

/** End-to-end mode: set-up timed several times, then the closed loop. */
void
runEndToEnd(Workload &w, double seconds, Report &report)
{
    // At least three set-ups, more while they are cheap; the median is
    // reported.
    std::vector<double> setups;
    double setup_total = 0.0;
    while (setups.size() < 3 || (setups.size() < 9 && setup_total < 2.0)) {
        const double t0 = nowSeconds();
        w.setup();
        setups.push_back(nowSeconds() - t0);
        setup_total += setups.back();
    }

    // Warm-up, untimed but checked: wakes idle cores and fills caches.
    std::vector<double> units;
    std::size_t i = 0;
    const double w0 = nowSeconds();
    do {
        report.attempt(w.op(i++, report, units));
        units.clear();
    } while (nowSeconds() - w0 < 1.0);

    // Peak memory of the measured work: return set-up's freed pages to
    // the system, then restart the high-water mark.
    resetPeakRss();

    // Whole rounds until the window has passed. An op's latency is its
    // wall time, unless it reports the latencies of its own units. The
    // rate is the median over rounds, so load from outside the process
    // that slows a few rounds moves it little.
    std::vector<double> latency, rate;
    const std::size_t first = i;
    const double t0 = nowSeconds();
    double round_start = t0;
    std::size_t round_first = 0;
    const auto ticks0 = cpuTicks();
    do {
        const double start = nowSeconds();
        const bool ok = w.op(i++, report, units);
        const double wall = nowSeconds() - start;
        if (units.empty())
            latency.push_back(wall);
        latency.insert(latency.end(), units.begin(), units.end());
        units.clear();
        report.attempt(ok);
        if ((i - first) % w.roundSize() == 0) {
            const double end = nowSeconds();
            rate.push_back(static_cast<double>(latency.size() - round_first) /
                           (end - round_start));
            round_start = end;
            round_first = latency.size();
        }
    } while ((i - first) % w.roundSize() != 0 || nowSeconds() - t0 < seconds);
    const double elapsed = nowSeconds() - t0;
    const auto ticks1 = cpuTicks();
    // Before the checks, whose direct runs are not the workload's.
    const double peak_mb = peakRssMb();

    w.check(report);
    const Accuracy acc = w.accuracy(report);

    report.metric("setup_s", median(setups), "s");
    report.metric("peak_rss_mb", peak_mb, "MB");
    report.metric("ops_per_s", median(rate), "1/s");
    report.metric("op_p50_ms", percentile(latency, 0.5) * 1e3, "ms");
    report.metric("op_p90_ms", percentile(latency, 0.9) * 1e3, "ms");
    report.metric("rel_err_rsr_pct", acc.relErrPct, "%");
    report.metric("rsr_smarts_gap_pct", acc.gapPct, "%");
    std::fprintf(stderr, "perfbench: %zu ops in %zu rounds, %.2fs\n",
                 latency.size(), rate.size(), elapsed);
    // Time a virtual machine's host took from it slows every host-time
    // figure; shown so a slow run can be told from a slow program.
    const double all = ticks1.first - ticks0.first;
    std::fprintf(stderr, "perfbench: host steal %.3f of CPU time\n",
                 all > 0.0 ? (ticks1.second - ticks0.second) / all : 0.0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            return usage("expected --flag value pairs");
        args[argv[i] + 2] = argv[i + 1];
    }
    if (argc % 2 == 0)
        return usage("expected --flag value pairs");
    for (const char *required : {"workload", "seed", "seconds", "trace"})
        if (!args.count(required))
            return usage((std::string("missing --") + required).c_str());

    const std::string name = args["workload"];
    std::uint64_t seed = 0;
    double seconds = 0.0;
    try {
        seed = std::stoull(args["seed"]);
        seconds = std::stod(args["seconds"]);
    } catch (const std::exception &) {
        return usage("--seed and --seconds take numbers");
    }
    const bool traced = args["trace"] == "1";
    if (!traced && args["trace"] != "0")
        return usage("--trace takes 0 or 1");

    std::unique_ptr<Workload> workload = makeWorkload(name, seed);
    if (!workload)
        return usage(("unknown workload '" + name + "'").c_str());

    // A fixed mmap threshold: glibc otherwise raises it as threads free
    // large buffers, so whether multi-megabyte store and trace buffers
    // stay resident after free -- and so peak RSS -- would depend on
    // thread timing.
    mallopt(M_MMAP_THRESHOLD, 1 << 20);

    Report report;
    try {
        if (traced)
            runTraced(*workload, seed, args["spans"], report);
        else
            runEndToEnd(*workload, seconds, report);
    } catch (const std::exception &e) {
        // A failure outside any single operation leaves no result.
        std::fprintf(stderr, "perfbench: fatal: %s\n", e.what());
        return 1;
    }
    std::cout << report.json() << std::endl;
    return 0;
}
