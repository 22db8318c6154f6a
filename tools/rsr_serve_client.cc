/**
 * @file
 * Command-line client for the rsr_sim serve daemon: ping, request,
 * stats and drain, each with the flags `rsr_serve_client --help` lists.
 *
 * Responses print their JSON payload on stdout. Exit status: 0 success,
 * 1 fatal/typed error reply, 3 BUSY (backpressure — retry after the
 * hinted delay), so load generators and scripts can branch on it.
 */

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "serve/net_io.hh"
#include "serve/protocol.hh"
#include "util/args.hh"
#include "util/error.hh"

namespace
{

using namespace rsr;

serve::SimRequest
requestFor(const ArgParser &args)
{
    serve::SimRequest req;
    req.workload = args.get("workload");
    if (req.workload.empty())
        rsr_throw_user("--workload is required");
    req.policy = args.get("policy");
    if (req.policy.empty())
        rsr_throw_user("--policy is required");
    req.insts = args.getU64("insts", req.insts);
    req.clusters = args.getU64("clusters", req.clusters);
    req.clusterSize = args.getU64("cluster-size", req.clusterSize);
    req.seed = args.getU64("seed", req.seed);
    req.machineKind = args.get("machine", req.machineKind);
    for (const std::string &set : args.getAll("set")) {
        const auto settings = splitList(set);
        req.overrides.insert(req.overrides.end(), settings.begin(),
                             settings.end());
    }
    req.deadlineMs = static_cast<std::uint32_t>(args.getU64(
        "deadline-ms", 0, std::numeric_limits<std::uint32_t>::max()));
    req.canonicalize();
    return req;
}

/** Send one frame, read one reply. */
serve::Frame
roundTrip(std::uint16_t port, const serve::Frame &frame,
          double timeout_sec)
{
    const Deadline deadline(timeout_sec);
    serve::Socket conn = serve::connectTo(port, deadline);
    serve::sendFrame(conn.fd(), frame, deadline);
    serve::Frame reply;
    if (!serve::recvFrame(conn.fd(), deadline, reply))
        rsr_throw_io("daemon closed the connection without replying");
    return reply;
}

/** Print the reply payload; map the frame type to an exit status. */
int
report(const serve::Frame &reply)
{
    const std::string text = reply.payloadText();
    switch (reply.type) {
      case serve::FrameType::Pong:
      case serve::FrameType::Ack:
        std::printf("%s\n", serve::frameTypeName(reply.type));
        return 0;
      case serve::FrameType::SimResponse:
      case serve::FrameType::StatsResponse:
        std::printf("%s\n", text.c_str());
        return 0;
      case serve::FrameType::Busy:
        std::fprintf(stderr, "busy: %s\n", text.c_str());
        return 3;
      case serve::FrameType::Error:
        std::fprintf(stderr, "error: %s\n", text.c_str());
        return 1;
      default:
        std::fprintf(stderr, "unexpected %s reply\n",
                     serve::frameTypeName(reply.type));
        return 1;
    }
}

/** Send one @p type frame (a SimRequest carries the request flags)
 *  and report the reply. */
int
exchange(const ArgParser &args, serve::FrameType type)
{
    if (!args.has("port"))
        rsr_throw_user("--port is required");
    const auto port = static_cast<std::uint16_t>(args.getPositiveU64(
        "port", 0, std::numeric_limits<std::uint16_t>::max()));
    const double timeout = args.getDouble("timeout", 30.0);
    serve::Frame frame =
        serve::textFrame(type, args.getU64("request-id", 1), "");
    if (type == serve::FrameType::SimRequest)
        frame.payload = serve::encodeSimRequest(requestFor(args));
    return report(roundTrip(port, frame, timeout));
}

const Flags kCommonFlags{
    {"port", "P"}, {"timeout", "SECS"}, {"request-id", "N"}};

} // namespace

int
main(int argc, char **argv)
{
    const Program client{
        "rsr_serve_client",
        {
            {"ping", "check that the daemon answers", kCommonFlags,
             [](const ArgParser &args) {
                 return exchange(args, serve::FrameType::Ping);
             }},
            {"request", "run one simulation (or answer it from a cache)",
             kCommonFlags +
                 Flags{{"workload", "W"}, {"policy", "P"}, {"insts", "N"},
                       {"clusters", "C"}, {"cluster-size", "S"},
                       {"seed", "X"}, {"machine", "scaled|paper"},
                       {"set", "K1=V1,K2=V2"}, {"deadline-ms", "MS"}},
             [](const ArgParser &args) {
                 return exchange(args, serve::FrameType::SimRequest);
             }},
            {"stats", "print the daemon's counters", kCommonFlags,
             [](const ArgParser &args) {
                 return exchange(args, serve::FrameType::StatsRequest);
             }},
            {"drain", "ask the daemon to finish its queue and exit",
             kCommonFlags,
             [](const ArgParser &args) {
                 return exchange(args, serve::FrameType::Drain);
             }},
        },
        "--set may be repeated; each value may hold several settings\n"
        "exit status: 0 ok, 1 error, 3 busy (retry later)\n"};
    return runProgram(client, argc, argv);
}
