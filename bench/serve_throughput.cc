/**
 * @file
 * Load generator for the `rsr_sim serve` daemon, and the source of the
 * perf-smoke CI baseline BENCH_serve_throughput.json.
 *
 * Runs an in-process daemon on an ephemeral port and drives it over the
 * real socket protocol, measuring the three service tiers the cache
 * architecture promises (docs/SERVE.md):
 *
 *   cold    — first sight of a request: full capture + replay
 *   hit     — identical repeat: answered from the result cache
 *   warm    — timing-only (`core.*`) change: replay from the shared
 *             live-point store, no functional re-simulation
 *
 * plus sustained concurrent throughput and client-observed p50/p99
 * latency over the socket.
 *
 * Wall-clock seconds are useless as a CI gate across runners, so the
 * gated `norm_*` key is a machine-cancelling ratio:
 * `norm_cache_hit_margin` = min(cold/hit speedup / 5, 4), saturated so
 * the gate tracks the required 5x floor without flapping on loopback
 * latency noise far above it. The bench itself exits non-zero if the
 * cache-hit speedup falls below 5x — the contract ISSUE 7 pins.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "serve/daemon.hh"
#include "serve/net_io.hh"
#include "serve/protocol.hh"
#include "util/args.hh"
#include "util/deadline.hh"
#include "util/error.hh"
#include "util/fileio.hh"
#include "util/timer.hh"

namespace
{

using namespace rsr;

/** One request/response exchange over a fresh connection. */
serve::Frame
exchange(std::uint16_t port, const serve::Frame &frame)
{
    const Deadline deadline(60.0);
    serve::Socket conn = serve::connectTo(port, deadline);
    serve::sendFrame(conn.fd(), frame, deadline);
    serve::Frame reply;
    if (!serve::recvFrame(conn.fd(), deadline, reply))
        rsr_throw_io("daemon closed the connection without a reply");
    return reply;
}

serve::Frame
simFrame(const serve::SimRequest &request, std::uint64_t id)
{
    serve::Frame frame;
    frame.type = serve::FrameType::SimRequest;
    frame.requestId = id;
    frame.payload = serve::encodeSimRequest(request);
    return frame;
}

double
timedExchange(std::uint16_t port, const serve::Frame &frame,
              serve::FrameType want)
{
    WallTimer timer;
    const serve::Frame reply = exchange(port, frame);
    const double seconds = timer.seconds();
    if (reply.type != want)
        rsr_throw_io("expected ", serve::frameTypeName(want), ", got ",
                     serve::frameTypeName(reply.type), ": ",
                     reply.payloadText());
    return seconds;
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
}

int
runBench(const ArgParser &args)
{
    const bool quick = args.has("quick");
    const std::string out_path =
        args.get("out", "BENCH_serve_throughput.json");

    bench::banner("serve daemon throughput and cache-tier latency",
                  "capture-once/replay-many served over a socket");

    serve::ServeConfig config;
    config.threads = 4;
    config.queueCapacity = 64;
    serve::Server server(std::move(config));
    server.start();
    const std::uint16_t port = server.port();
    std::thread serve_thread([&server] { server.serve(); });
    std::printf("daemon on 127.0.0.1:%u (4 workers)\n\n", port);

    serve::SimRequest request;
    request.workload = "gcc";
    request.policy = "rsr40";
    request.insts = quick ? 400'000 : 2'000'000;
    request.clusters = quick ? 10 : 20;
    request.clusterSize = 2000;

    int exit_status = 0;
    try {
        // Tier 1: cold — capture + replay, populates both caches.
        const double cold_s = timedExchange(
            port, simFrame(request, 1), serve::FrameType::SimResponse);
        std::printf("cold capture     %8.1f ms\n", cold_s * 1e3);

        // Tier 2: cache hits — client-observed latency distribution.
        const unsigned hits = quick ? 50 : 200;
        std::vector<double> hit_s;
        hit_s.reserve(hits);
        for (unsigned i = 0; i < hits; ++i)
            hit_s.push_back(
                timedExchange(port, simFrame(request, 2 + i),
                              serve::FrameType::SimResponse));
        const double hit_p50 = percentile(hit_s, 0.50);
        const double hit_p99 = percentile(hit_s, 0.99);
        std::printf("cache hit p50    %8.3f ms   p99 %8.3f ms  (%u reqs)\n",
                    hit_p50 * 1e3, hit_p99 * 1e3, hits);

        // Tier 3: warm replay — timing-only change reuses the capture.
        serve::SimRequest timing = request;
        timing.overrides = {"core.rob_size=96"};
        const double warm_s = timedExchange(
            port, simFrame(timing, 500), serve::FrameType::SimResponse);
        std::printf("warm replay      %8.1f ms\n", warm_s * 1e3);

        // Sustained concurrent cache-hit throughput.
        const unsigned clients = 4;
        const unsigned per_client = quick ? 25 : 100;
        WallTimer wall;
        std::vector<std::thread> swarm;
        for (unsigned c = 0; c < clients; ++c)
            swarm.emplace_back([&, c] {
                for (unsigned i = 0; i < per_client; ++i)
                    (void)exchange(port,
                                   simFrame(request, 1000 + c * 1000 + i));
            });
        for (auto &t : swarm)
            t.join();
        const double swarm_s = wall.seconds();
        const double rps =
            static_cast<double>(clients * per_client) / swarm_s;
        std::printf("throughput       %8.0f req/s  (%u clients)\n", rps,
                    clients);

        const double speedup = hit_p50 > 0.0 ? cold_s / hit_p50 : 0.0;
        const double warm_speedup = warm_s > 0.0 ? cold_s / warm_s : 0.0;
        std::printf("\ncache-hit speedup %7.1f x   warm-replay %7.1f x\n",
                    speedup, warm_speedup);

        // The contract: cache hits at least 5x faster than cold. The
        // gated margin saturates at 4 (a 20x speedup) so loopback noise
        // far above the floor cannot flap the perf-smoke ratio gate.
        const double margin = std::min(speedup / 5.0, 4.0);
        if (speedup < 5.0) {
            std::printf("ERROR: cache-hit speedup %.1fx is below the "
                        "5x contract\n",
                        speedup);
            exit_status = 1;
        }

        const serve::ServeStats stats = server.stats();
        auto j = bench::benchJson("serve_throughput", 4);
        j.put("mode", quick ? "quick" : "full")
            .put("workload", request.workload)
            .put("policy", request.policy)
            .put("insts", request.insts)
            .put("cold_seconds", cold_s)
            .put("hit_p50_ms", hit_p50 * 1e3)
            .put("hit_p99_ms", hit_p99 * 1e3)
            .put("warm_seconds", warm_s)
            .put("throughput_rps", rps)
            .put("speedup_cache_hit", speedup)
            .put("speedup_warm_replay", warm_speedup)
            .put("requests_completed", stats.completed)
            .put("cache_hits", stats.cacheHits)
            .put("warm_replays", stats.warmReplays)
            .put("cold_captures", stats.coldCaptures)
            // Gated ratio (bench_compare only reads norm_*): saturated
            // cache-hit margin against the 5x floor.
            .put("norm_cache_hit_margin", margin);
        atomicWriteFile(out_path, j.str() + "\n");
        std::printf("wrote %s\n", out_path.c_str());
    } catch (const SimError &e) {
        std::printf("ERROR: [%s] %s\n", errorKindName(e.kind()),
                    e.what());
        exit_status = 1;
    }

    server.requestDrain();
    serve_thread.join();
    return exit_status;
}

} // namespace

int
main(int argc, char **argv)
{
    return rsr::runProgram(
        {"serve_throughput",
         {{"serve_throughput",
           "serve daemon throughput and cache-tier latency",
           {{"quick", ""}, {"out", "FILE"}},
           runBench}},
         "--quick: CI perf-smoke sizing; --out defaults to\n"
         "BENCH_serve_throughput.json\n"},
        argc, argv);
}
