// bluedove_noded — run one BlueDove server as an OS process, talking real
// TCP to its peers. Lets a cluster be deployed as N processes (or hosts).
//
//   --role=matcher|dispatcher|sink   what this process is
//   --id=N                           this node's id
//   --port=P                         listen port (default 7000+id)
//   --peers=id@host:port,...         address directory for the other nodes
//   --cluster=id,id,...              matcher ids in segment order (bootstrap)
//   --dispatchers=id,...             dispatcher ids (matchers report to them)
//   --sink=id                        delivery/metrics sink node id
//   --dims=K --domain=L              schema (default 4 x [0,1000))
//   --index=bucket|flat-bucket|interval-tree|linear-scan   (matcher only;
//                                    any other name exits 2)
//   --match-batch=N                  matcher batch drain depth (default 1)
//   --cover                          matcher subscription covering
//                                    (DESIGN.md §15): near-duplicate
//                                    predicates are aggregated behind
//                                    covering representatives and expanded
//                                    at delivery
//   --cover-budget=F                 covering false-positive volume budget
//                                    (default 0.05)
//   --cores=N                        matcher offload worker threads
//                                    (default 4): index probes run on a
//                                    work-stealing pool off the node
//                                    thread, one lane per dimension
//                                    (DESIGN.md §10)
//   --simd=auto|scalar|off|avx2|avx512|neon  match-probe kernel (matcher;
//                                    default auto: widest ISA the CPU
//                                    supports, scalar/vector results are
//                                    identical — DESIGN.md §12). The
//                                    BLUEDOVE_SIMD env var sets the same
//                                    default for every process.
//   --edge-port=P                    (dispatcher) also open a client edge
//                                    listener: an epoll reactor front end
//                                    multiplexing persistent client
//                                    connections with resumable sessions
//                                    (DESIGN.md §16). 0 = disabled.
//   --edge-reactors=N                edge reactor threads (default 2)
//   --trace-sample=R                 dispatcher trace sampling rate [0,1]
//   --stats-json=PATH                periodically write the node's metrics
//                                    snapshot as JSON to PATH
//   --stats-interval=SEC             snapshot cadence (default 5 s)
//   --trace-json=PATH                where SIGUSR2 (and exit) dump the
//                                    flight recorder as Perfetto JSON
//                                    (default bluedove_trace_<id>.json)
//
// The wire has no tuning flags: whatever one node task sends to a peer
// leaves as one frame, split only at the 64 MiB frame cap (net/wire.h).
//
// Live scraping: matchers and dispatchers answer StatsRequest envelopes
// with a StatsResponse carrying their metrics registry as JSON; use
// `bluedove_cli stats --peer=host:port` against any of them. They also
// answer TraceDumpRequest (`bluedove_cli trace-dump`) with their current
// flight-recorder contents; SIGUSR2 dumps the same trace to --trace-json
// for roles that cannot answer envelopes (the sink).
//
// Example 3-matcher cluster on one machine (each command is one shell
// line, wrapped here for width):
//   bluedove_noded --role=sink       --id=2    --port=7002 &
//   bluedove_noded --role=dispatcher --id=10   --port=7010
//       --cluster=1000,1001,1002 --peers=1000@127.0.0.1:8000,... &
//   bluedove_noded --role=matcher    --id=1000 --port=8000
//       --cluster=1000,1001,1002 --dispatchers=10 --sink=2 --peers=... &
//   ... then publish with any TCP client that speaks the frame format
//   (tests/test_tcp.cpp shows one).

#include <csignal>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>

#include "common/cli.h"
#include "edge/edge_frontend.h"
#include "net/tcp_transport.h"
#include "node/dispatcher_node.h"
#include "node/matcher_node.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace_export.h"
#include "simd/range_kernel.h"

using namespace bluedove;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

volatile std::sig_atomic_t g_trace_dump = 0;
void on_trace_signal(int) { g_trace_dump = 1; }

std::vector<NodeId> parse_ids(const std::string& csv) {
  std::vector<NodeId> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(static_cast<NodeId>(std::stoul(item)));
  }
  return out;
}

/// "id@host:port,id@host:port" -> directory.
std::map<NodeId, net::TcpEndpoint> parse_peers(const std::string& csv) {
  std::map<NodeId, net::TcpEndpoint> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto at = item.find('@');
    const auto colon = item.rfind(':');
    if (at == std::string::npos || colon == std::string::npos ||
        colon < at) {
      continue;
    }
    const auto id = static_cast<NodeId>(std::stoul(item.substr(0, at)));
    net::TcpEndpoint ep;
    ep.host = item.substr(at + 1, colon - at - 1);
    ep.port = static_cast<std::uint16_t>(
        std::stoul(item.substr(colon + 1)));
    out[id] = ep;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = CliArgs::parse(argc, argv);
  const std::string simd_mode = args.get("simd", "auto");
  if (!simd::set_kernel(simd_mode)) {
    std::fprintf(stderr,
                 "bluedove_noded: --simd=%s not available on this build/CPU "
                 "(try auto, scalar, off)\n",
                 simd_mode.c_str());
    return 2;
  }
  const std::string role = args.get("role", "");
  const auto id = static_cast<NodeId>(args.get_int("id", 0));
  if (role.empty() || id == 0) {
    std::fprintf(stderr,
                 "usage: bluedove_noded --role=matcher|dispatcher|sink "
                 "--id=N [--port=P] [--peers=...] [--cluster=...]\n");
    return 2;
  }
  // Best-effort fd-limit raise (an edge dispatcher holds one fd per client
  // connection); the achieved soft limit is logged so deployments can see
  // how many clients this process can actually take.
  const std::size_t fd_limit = net::raise_fd_limit(1u << 20);
  std::fprintf(stderr, "bluedove_noded: RLIMIT_NOFILE soft limit %zu\n",
               fd_limit);
  const auto port =
      static_cast<std::uint16_t>(args.get_int("port", 7000 + id % 1000));
  const auto dims = static_cast<std::size_t>(args.get_int("dims", 4));
  const double domain_len = args.get_double("domain", 1000.0);
  const std::vector<Range> domains(dims, Range{0, domain_len});
  const std::vector<NodeId> cluster = parse_ids(args.get("cluster", ""));
  const std::vector<NodeId> dispatchers =
      parse_ids(args.get("dispatchers", ""));
  const auto sink = static_cast<NodeId>(args.get_int("sink", 0));

  std::unique_ptr<Node> node;
  if (role == "matcher") {
    MatcherConfig cfg;
    cfg.domains = domains;
    cfg.cores = static_cast<int>(args.get_int("cores", 4));
    const std::string index = args.get("index", "bucket");
    const std::optional<IndexKind> kind = index_kind_from_string(index);
    if (!kind) {
      std::fprintf(stderr,
                   "bluedove_noded: unknown --index=%s (bucket, flat-bucket, "
                   "interval-tree, linear-scan)\n",
                   index.c_str());
      return 2;
    }
    cfg.index_kind = *kind;
    cfg.match_batch = static_cast<int>(args.get_int("match-batch", 1));
    cfg.cover.enabled = args.get_bool("cover", false);
    cfg.cover.fp_volume_budget = args.get_double("cover-budget", 0.05);
    cfg.dispatchers = dispatchers;
    cfg.metrics_sink = sink != 0 ? sink : kInvalidNode;
    cfg.delivery_sink = sink != 0 ? sink : kInvalidNode;
    auto matcher = std::make_unique<MatcherNode>(id, cfg);
    if (!cluster.empty()) {
      matcher->set_bootstrap(bootstrap_table(cluster, domains));
    }
    node = std::move(matcher);
  } else if (role == "dispatcher") {
    DispatcherConfig cfg;
    cfg.domains = domains;
    cfg.reliable_delivery = args.get_bool("reliable", false);
    cfg.trace_sample_rate = args.get_double("trace-sample", 0.0);
    auto dispatcher = std::make_unique<DispatcherNode>(id, cfg);
    if (!cluster.empty()) {
      dispatcher->set_bootstrap(bootstrap_table(cluster, domains));
    }
    node = std::move(dispatcher);
  } else if (role == "sink") {
    node = std::make_unique<FunctionNode>(
        [](NodeId, const Envelope& env, Timestamp) {
          if (const auto* d = std::get_if<Delivery>(&env.payload)) {
            if (d->trace_id != 0) {
              // Third pid on the causal trace: dispatch -> match -> deliver.
              static const std::uint16_t arrive =
                  obs::Recorder::intern("deliver.arrive");
              obs::Recorder::instant(arrive, d->trace_id, d->msg_id);
            }
            std::printf("delivery: msg=%llu sub=%llu subscriber=%llu\n",
                        (unsigned long long)d->msg_id,
                        (unsigned long long)d->sub_id,
                        (unsigned long long)d->subscriber);
            std::fflush(stdout);
          }
        });
  } else {
    std::fprintf(stderr, "unknown role '%s'\n", role.c_str());
    return 2;
  }

  net::TcpHost host(id, port, std::move(node),
                    static_cast<std::uint64_t>(args.get_int("seed", 42)));
  if (host.port() == 0) {
    std::fprintf(stderr, "failed to bind port %u\n", port);
    return 1;
  }
  for (const auto& [peer, ep] : parse_peers(args.get("peers", ""))) {
    host.add_peer(peer, ep);
  }

  // Client edge layer (dispatcher only): epoll reactor front end with
  // resumable sessions, feeding client ops into this dispatcher's ingress
  // and fanning deliveries back out over the persistent client sockets.
  std::unique_ptr<edge::EdgeFrontend> edge_fe;
  std::string edge_host;
  const auto edge_port =
      static_cast<std::uint16_t>(args.get_int("edge-port", 0));
  if (edge_port != 0 && role == "dispatcher") {
    edge::EdgeConfig ecfg;
    ecfg.port = edge_port;
    ecfg.reactors = static_cast<int>(args.get_int("edge-reactors", 2));
    edge_host = ecfg.host;
    edge_fe = std::make_unique<edge::EdgeFrontend>(
        ecfg, id, [&host](Envelope&& env) {
          host.inject(kInvalidNode, std::move(env));
        });
    auto* dispatcher = host.node_as<DispatcherNode>();
    dispatcher->on_delivery = [fe = edge_fe.get()](const Delivery& d) {
      fe->deliver(d);
    };
    dispatcher->add_stats_registry(&edge_fe->metrics());
  } else if (edge_port != 0) {
    std::fprintf(stderr, "--edge-port requires --role=dispatcher\n");
    return 2;
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGUSR2, on_trace_signal);
  host.start();
  if (edge_fe) edge_fe->start();
  std::printf("bluedove_noded role=%s id=%u listening on 127.0.0.1:%u\n",
              role.c_str(), id, host.port());
  if (edge_fe) {
    std::printf("bluedove_noded id=%u edge listening on %s:%u "
                "(%d reactors)\n",
                id, edge_host.c_str(), edge_fe->port(),
                static_cast<int>(args.get_int("edge-reactors", 2)));
  }
  std::fflush(stdout);

  // Periodic machine-readable export: write the node's metrics registry to
  // --stats-json every --stats-interval seconds (snapshots read the
  // registry's atomics, so scraping never blocks the node thread).
  const std::string stats_path = args.get("stats-json", "");
  const double stats_interval = args.get_double("stats-interval", 5.0);
  auto snapshot_now = [&]() -> obs::MetricsSnapshot {
    obs::MetricsSnapshot snap;
    if (role == "matcher") {
      snap = host.node_as<MatcherNode>()->metrics().snapshot();
    } else if (role == "dispatcher") {
      snap = host.node_as<DispatcherNode>()->metrics().snapshot();
    }
    // Transport-level instrumentation rides along in the same export
    // (wire.* names never collide with node-level ones).
    snap.merge(host.wire_metrics().snapshot());
    if (edge_fe) snap.merge(edge_fe->metrics().snapshot());
    return snap;
  };
  const std::string trace_arg = args.get("trace-json", "");
  const std::string trace_path =
      trace_arg.empty() ? "bluedove_trace_" + std::to_string(id) + ".json"
                        : trace_arg;
  auto dump_trace = [&] {
    if (obs::write_perfetto_file(trace_path)) {
      std::printf("flight-recorder trace written to %s\n",
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", trace_path.c_str());
    }
    std::fflush(stdout);
  };
  double since_stats = 0.0;
  while (!g_stop) {
    struct timespec ts{0, 100 * 1000 * 1000};
    nanosleep(&ts, nullptr);
    if (g_trace_dump) {
      g_trace_dump = 0;
      dump_trace();
    }
    if (stats_path.empty() || role == "sink") continue;
    since_stats += 0.1;
    if (since_stats >= stats_interval) {
      since_stats = 0.0;
      if (!obs::write_json_file(stats_path, snapshot_now())) {
        std::fprintf(stderr, "failed to write %s\n", stats_path.c_str());
      }
    }
  }
  if (!stats_path.empty() && role != "sink") {
    obs::write_json_file(stats_path, snapshot_now());  // final snapshot
  }
  if (edge_fe) edge_fe->stop();
  host.stop();
  if (!trace_arg.empty()) {
    // Post-stop dump so the trace covers the node's full lifetime (nothing
    // writes events after the host joined its threads). Opt-in via
    // --trace-json so plain runs leave no files behind.
    dump_trace();
  }
  return 0;
}
