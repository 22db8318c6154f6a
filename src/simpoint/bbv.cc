#include "bbv.hh"

#include <algorithm>

#include "func/funcsim.hh"
#include "util/error.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace rsr::simpoint
{

BbvProfile
profileBbv(const func::Program &program,
           const std::vector<core::Cluster> &windows,
           const Deadline *deadline)
{
    BbvProfile prof;
    if (windows.empty())
        return prof;
    const std::uint64_t end = windows.back().start + windows.back().size;
    core::validateSchedule(windows, end);

    func::FuncSim fs(program);
    std::unordered_map<std::uint64_t, std::uint32_t> block_ids;
    std::unordered_map<std::uint32_t, std::uint32_t> current; // id -> insts

    std::uint64_t block_leader = program.entry;
    std::uint32_t block_len = 0; // windowed insts of the current block

    auto flush_block = [&]() {
        if (block_len == 0)
            return;
        const auto [it, inserted] = block_ids.try_emplace(
            block_leader, static_cast<std::uint32_t>(block_ids.size()));
        if (inserted)
            prof.blockLeaders.push_back(block_leader);
        current[it->second] += block_len;
        block_len = 0;
    };

    auto flush_window = [&](std::uint64_t insts) {
        flush_block();
        IntervalBbv iv;
        iv.totalInsts = insts;
        // Materialize in block-id order: downstream consumers sum
        // floating-point projections over these pairs, so hash-map
        // iteration order would leak into the clustering results.
        // rsrlint: allow(det-unordered-iter) — sorted on the next line
        iv.counts.assign(current.begin(), current.end());
        std::sort(iv.counts.begin(), iv.counts.end());
        prof.intervals.push_back(std::move(iv));
        current.clear();
    };

    std::size_t next = 0; // first window not yet finished
    func::DynInst d;
    for (std::uint64_t i = 0; i < end; ++i) {
        if (deadline && (i & Deadline::pollMask) == 0 && deadline->expired())
            throw TimeoutError("BBV profiling pass exceeded its deadline");
        const core::Cluster &w = windows[next];
        if (!fs.step(&d)) {
            if (i > w.start)
                flush_window(i - w.start);
            break;
        }
        if (i >= w.start)
            ++block_len;
        if (d.isBranch() || d.nextPc != d.pc + 4) {
            flush_block();
            block_leader = d.nextPc;
        }
        if (i + 1 == w.start + w.size) {
            flush_window(w.size);
            ++next;
        }
    }

    prof.numBlocks = static_cast<std::uint32_t>(block_ids.size());
    return prof;
}

BbvProfile
profileBbv(const func::Program &program, std::uint64_t total_insts,
           std::uint64_t interval_size)
{
    rsr_assert(interval_size > 0, "interval size must be positive");
    std::vector<core::Cluster> windows;
    for (std::uint64_t start = 0; start < total_insts; start += interval_size)
        windows.push_back(
            {start, std::min(interval_size, total_insts - start)});
    BbvProfile prof = profileBbv(program, windows);
    prof.intervalSize = interval_size;
    return prof;
}

std::vector<std::vector<double>>
projectBbv(const BbvProfile &profile, unsigned dims, std::uint64_t seed)
{
    // One deterministic projection row per basic block, generated lazily:
    // entries uniform in [-1, 1), keyed by (block, dim) via a seeded hash.
    auto proj_entry = [&](std::uint32_t block, unsigned dim) {
        Rng r(seed ^ (std::uint64_t{block} << 20) ^ dim ^
              0x517cc1b727220a95ull);
        r.next();
        return r.uniform() * 2.0 - 1.0;
    };

    std::vector<std::vector<double>> out;
    out.reserve(profile.intervals.size());
    for (const IntervalBbv &iv : profile.intervals) {
        std::vector<double> v(dims, 0.0);
        const double total =
            iv.totalInsts ? static_cast<double>(iv.totalInsts) : 1.0;
        for (const auto &[block, count] : iv.counts) {
            const double f = static_cast<double>(count) / total;
            for (unsigned j = 0; j < dims; ++j)
                v[j] += f * proj_entry(block, j);
        }
        out.push_back(std::move(v));
    }
    return out;
}

} // namespace rsr::simpoint
