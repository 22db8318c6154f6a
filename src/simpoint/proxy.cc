#include "proxy.hh"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "func/funcsim.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace rsr::simpoint
{

std::vector<double>
bbvCentroidDistance(const func::Program &program,
                    const std::vector<core::Cluster> &candidates,
                    const Deadline *deadline)
{
    if (candidates.empty())
        return {};
    const std::uint64_t end =
        candidates.back().start + candidates.back().size;
    core::validateSchedule(candidates, end);

    func::FuncSim fs(program);
    std::unordered_map<std::uint64_t, std::uint32_t> block_ids;
    std::unordered_map<std::uint32_t, std::uint32_t> current; // id -> insts
    // Per-cluster sparse vectors, sorted by block id at flush time.
    std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
        vectors(candidates.size());

    std::uint64_t block_leader = program.entry;
    std::uint32_t block_len = 0;

    auto flush_block = [&]() {
        if (block_len == 0)
            return;
        const auto [it, inserted] = block_ids.try_emplace(
            block_leader, static_cast<std::uint32_t>(block_ids.size()));
        current[it->second] += block_len;
        block_len = 0;
    };

    auto flush_cluster = [&](std::size_t idx) {
        flush_block();
        // rsrlint: allow(det-unordered-iter) — sorted on the next line
        vectors[idx].assign(current.begin(), current.end());
        std::sort(vectors[idx].begin(), vectors[idx].end());
        current.clear();
    };

    std::size_t next = 0;
    func::DynInst d;
    for (std::uint64_t i = 0; i < end; ++i) {
        if (deadline && (i & Deadline::pollMask) == 0 && deadline->expired())
            throw TimeoutError("BBV proxy pass exceeded its deadline");
        const bool ok = fs.step(&d);
        rsr_assert(ok, "workload halted inside the BBV proxy pass");

        const core::Cluster &c = candidates[next];
        if (i >= c.start) {
            // Inside the candidate: accumulate its block counts. Block
            // dimension ids are first-seen over measured instructions
            // only, so the id assignment — and every distance below —
            // is deterministic.
            if (block_len == 0)
                block_leader = d.pc;
            ++block_len;
            if (d.isBranch() || d.nextPc != d.pc + 4)
                flush_block();
            if (i + 1 == c.start + c.size) {
                flush_cluster(next);
                ++next;
                if (next == candidates.size())
                    break;
            }
        }
    }
    rsr_assert(next == candidates.size(),
               "BBV proxy pass ended before the last candidate");

    // Frequency-normalize, form the centroid, score by L2 distance.
    const std::uint32_t dims =
        static_cast<std::uint32_t>(block_ids.size());
    std::vector<double> centroid(dims, 0.0);
    std::vector<std::vector<double>> dense(candidates.size());
    for (std::size_t k = 0; k < candidates.size(); ++k) {
        dense[k].assign(dims, 0.0);
        const double total =
            candidates[k].size ? static_cast<double>(candidates[k].size)
                               : 1.0;
        for (const auto &[block, count] : vectors[k])
            dense[k][block] = static_cast<double>(count) / total;
        for (std::uint32_t j = 0; j < dims; ++j)
            centroid[j] += dense[k][j];
    }
    const double inv_n = 1.0 / static_cast<double>(candidates.size());
    for (std::uint32_t j = 0; j < dims; ++j)
        centroid[j] *= inv_n;

    std::vector<double> scores(candidates.size(), 0.0);
    for (std::size_t k = 0; k < candidates.size(); ++k) {
        double sum_sq = 0.0;
        for (std::uint32_t j = 0; j < dims; ++j) {
            const double diff = dense[k][j] - centroid[j];
            sum_sq += diff * diff;
        }
        scores[k] = std::sqrt(sum_sq);
    }
    return scores;
}

} // namespace rsr::simpoint
