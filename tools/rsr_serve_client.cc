/**
 * @file
 * Command-line client for the rsr_sim serve daemon.
 *
 *   rsr_serve_client ping    --port P
 *   rsr_serve_client request --port P --workload W --policy P
 *                    [--insts N] [--clusters C] [--cluster-size S]
 *                    [--seed X] [--machine scaled|paper]
 *                    [--set key=V]... (repeatable, or --set k1=v1,k2=v2)
 *                    [--deadline-ms MS] [--timeout SECS]
 *   rsr_serve_client stats   --port P
 *   rsr_serve_client drain   --port P
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

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        const auto comma = csv.find(',', pos);
        const auto end = comma == std::string::npos ? csv.size() : comma;
        if (end > pos)
            out.push_back(csv.substr(pos, end - pos));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

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

int
dispatch(const ArgParser &args)
{
    const std::set<std::string> allowed{
        "port",     "workload", "policy",       "insts",
        "clusters", "cluster-size", "seed",     "machine",
        "set",      "deadline-ms",  "timeout",  "request-id"};
    args.requireKnown(allowed);

    const std::string cmd_peek = args.command();
    if (!cmd_peek.empty() && !args.has("port"))
        rsr_throw_user("--port is required");
    const auto port = static_cast<std::uint16_t>(args.getPositiveU64(
        "port", 0, std::numeric_limits<std::uint16_t>::max()));
    const double timeout = args.getDouble("timeout", 30.0);
    const std::uint64_t request_id = args.getU64("request-id", 1);

    const std::string cmd = args.command();
    if (cmd == "ping")
        return report(roundTrip(
            port, serve::textFrame(serve::FrameType::Ping, request_id, ""),
            timeout));
    if (cmd == "stats")
        return report(roundTrip(
            port,
            serve::textFrame(serve::FrameType::StatsRequest, request_id,
                             ""),
            timeout));
    if (cmd == "drain")
        return report(roundTrip(
            port,
            serve::textFrame(serve::FrameType::Drain, request_id, ""),
            timeout));
    if (cmd == "request") {
        const serve::SimRequest req = requestFor(args);
        serve::Frame frame;
        frame.type = serve::FrameType::SimRequest;
        frame.requestId = request_id;
        frame.payload = serve::encodeSimRequest(req);
        return report(roundTrip(port, frame, timeout));
    }

    std::printf(
        "usage: rsr_serve_client <ping|request|stats|drain> --port P\n"
        "  request --workload W --policy P [--insts N] [--clusters C]\n"
        "          [--cluster-size S] [--seed X] [--machine "
        "scaled|paper]\n"
        "          [--set k1=v1,k2=v2] [--deadline-ms MS]\n"
        "  common: [--timeout SECS] [--request-id N]\n"
        "exit status: 0 ok, 1 error, 3 busy (retry later)\n");
    return cmd.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const ArgParser args(argc, argv);
        return dispatch(args);
    } catch (const SimError &e) {
        std::fprintf(stderr, "fatal [%s]: %s\n",
                     errorKindName(e.kind()), e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
}
