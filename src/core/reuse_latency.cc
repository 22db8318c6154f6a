#include "reuse_latency.hh"

#include <algorithm>
#include <unordered_map>

#include "func/funcsim.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace rsr::core
{

ReuseLatencyProfile
profileReuseLatency(const func::Program &program,
                    const std::vector<Cluster> &schedule,
                    ReuseLatencyKind kind, double percentile,
                    const Deadline *deadline)
{
    rsr_assert(percentile > 0.0 && percentile <= 1.0,
               "percentile out of range");

    ReuseLatencyProfile prof;
    prof.kind = kind;
    func::FuncSim fs(program);
    // Last-touch instruction index per cache line (instruction lines are
    // tagged into a disjoint key space) and per branch PC. Determinism
    // audit: this map is only ever point-queried (find/insert) — the
    // profile's output order comes from `latencies`, which is filled in
    // program order and sorted before the percentile cut, so no
    // hash-iteration order can leak into warmupLengths.
    std::unordered_map<std::uint64_t, std::uint64_t> last_touch;

    func::DynInst d;
    std::size_t next_cluster = 0;
    std::vector<std::uint64_t> latencies;

    const std::uint64_t end = schedule.empty()
                                  ? 0
                                  : schedule.back().start +
                                        schedule.back().size;
    for (std::uint64_t i = 0; i < end; ++i) {
        if (deadline && (i & Deadline::pollMask) == 0 &&
            deadline->expired())
            throw TimeoutError("reuse-latency profiling exceeded its "
                               "deadline");
        const bool ok = fs.step(&d);
        rsr_assert(ok, "workload halted during reuse-latency profiling");
        ++prof.profiledInsts;

        const Cluster &cl = schedule[next_cluster];
        const std::uint64_t window_start =
            next_cluster == 0 ? 0
                              : schedule[next_cluster - 1].start +
                                    schedule[next_cluster - 1].size;
        const bool in_cluster = i >= cl.start && i < cl.start + cl.size;
        const bool in_window = i >= window_start;

        auto touch = [&](std::uint64_t key) {
            const auto it = last_touch.find(key);
            if (it != last_touch.end()) {
                const std::uint64_t prev = it->second;
                switch (kind) {
                  case ReuseLatencyKind::Mrrl:
                    // Every reuse observed inside the pre-cluster +
                    // cluster window counts, measured as the distance the
                    // warm-up would have to reach back from this
                    // reference, capped at the window.
                    if (in_window && prev >= window_start)
                        latencies.push_back(i - prev);
                    break;
                  case ReuseLatencyKind::Blrl:
                    // Only cluster references whose previous touch lies
                    // before the cluster: the warm-up must reach back
                    // from the boundary line to that touch.
                    if (in_cluster && prev >= window_start &&
                        prev < cl.start)
                        latencies.push_back(cl.start - prev);
                    break;
                }
            }
            last_touch[key] = i;
        };

        touch(d.pc >> 6);
        if (d.inst.isMem())
            touch((d.effAddr >> 6) | (1ull << 62));
        if (d.isBranch())
            touch(d.pc | (1ull << 63));

        if (i + 1 == cl.start + cl.size) {
            // Cluster finished: derive this region's warm-up length.
            std::uint64_t warm = 0;
            if (!latencies.empty()) {
                std::sort(latencies.begin(), latencies.end());
                const auto idx = static_cast<std::size_t>(
                    percentile * static_cast<double>(latencies.size() - 1));
                warm = latencies[idx];
            }
            const std::uint64_t skip_len = cl.start - window_start;
            prof.warmupLengths.push_back(std::min(warm, skip_len));
            latencies.clear();
            ++next_cluster;
            if (next_cluster >= schedule.size())
                break;
        }
    }
    rsr_assert(prof.warmupLengths.size() == schedule.size(),
               "reuse-latency profile incomplete");
    return prof;
}

} // namespace rsr::core
