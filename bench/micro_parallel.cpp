// micro_parallel — loopback parallel-matching benchmark.
//
// One net::TcpHost matcher (flat-bucket index, match_batch=32) is preloaded
// with N subscriptions over the wire, then blasted with MatchRequests sent
// from one client-host task, which the wire coalesces into multi-envelope
// frames. The matcher's --cores worth of offload
// workers drain the per-dimension lanes; the bench times from first blast
// send until matcher.matched has counted every request, sweeping
// cores in {1, 2, 4, 8}.
//
// Emits BENCH_parallel.json (obs JSON schema): one msgs/sec gauge per
// (cores, subs) cell, speedup gauges vs cores=1, executor job/steal
// counters, and the box it ran on: hardware_concurrency, nproc (the CPUs
// this process may run on; speedups can only materialize when the machine
// actually has the cores) and ndebug = 1 for an optimised build.
//
// Flags: --subs N (default 100000), --requests N (default 40000),
//        --large (adds a 1,000,000-subscription sweep).

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "net/cluster_table.h"
#include "net/tcp_transport.h"
#include "node/matcher_node.h"

using namespace bluedove;

namespace {

constexpr NodeId kMatcher = 1000;
constexpr NodeId kClient = 2;
constexpr std::size_t kDims = 4;
constexpr double kDomainHi = 100.0;

/// Client endpoint: exposes its context for driving sends, counts acks.
class ClientNode final : public Node {
 public:
  void start(NodeContext& ctx) override {
    ctx_.store(&ctx, std::memory_order_release);
  }
  void on_receive(NodeId /*from*/, Envelope env) override {
    if (std::holds_alternative<MatchAck>(env.payload)) {
      acks_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  NodeContext* ctx() const { return ctx_.load(std::memory_order_acquire); }
  std::uint64_t acks() const { return acks_.load(std::memory_order_relaxed); }

 private:
  std::atomic<NodeContext*> ctx_{nullptr};
  std::atomic<std::uint64_t> acks_{0};
};

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t matched_count(const MatcherNode* matcher) {
  const obs::MetricsSnapshot snap = matcher->metrics().snapshot();
  const auto it = snap.counters.find("matcher.matched");
  return it != snap.counters.end() ? it->second : 0;
}

struct CellResult {
  double tput = 0.0;       ///< msgs/sec counted at the matcher
  double exec_jobs = 0.0;  ///< offload pool jobs (0 on the inline path)
  double exec_steals = 0.0;
};

/// One (cores, subs) cell: fresh hosts, preload, blast, teardown.
CellResult run_cell(int cores, std::uint64_t subs, std::uint64_t requests) {
  const std::vector<Range> domains(kDims, Range{0.0, kDomainHi});

  MatcherConfig mcfg;
  mcfg.domains = domains;
  mcfg.cores = cores;
  mcfg.index_kind = IndexKind::kFlatBucket;
  mcfg.match_batch = 32;
  mcfg.match_mode = MatcherConfig::MatchMode::kFull;
  mcfg.deliver = false;  // measure matching, not delivery fan-out
  mcfg.load_report_interval = 10.0;
  mcfg.gossip.round_interval = 10.0;
  auto matcher_node = std::make_unique<MatcherNode>(kMatcher, mcfg);
  matcher_node->set_bootstrap(bootstrap_table({kMatcher}, domains));
  const MatcherNode* matcher = matcher_node.get();
  net::TcpHost matcher_host(kMatcher, 0, std::move(matcher_node));

  net::TcpHost client_host(kClient, 0, std::make_unique<ClientNode>());
  auto* client = client_host.node_as<ClientNode>();

  matcher_host.add_peer(kClient, {"127.0.0.1", client_host.port()});
  client_host.add_peer(kMatcher, {"127.0.0.1", matcher_host.port()});
  matcher_host.start();
  client_host.start();
  while (client->ctx() == nullptr) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  NodeContext* ctx = client->ctx();
  // Envelopes are built on this thread and sent from node-thread tasks.
  const auto send = [&](std::vector<Envelope> envs) {
    client_host.post([ctx, envs = std::move(envs)]() mutable {
      for (Envelope& env : envs) ctx->send(kMatcher, std::move(env));
    });
  };

  // Preload: `subs` subscriptions, round-robin across the dimension sets,
  // each a 1%-wide predicate per dimension.
  Rng rng(7);
  std::vector<Envelope> stores;
  for (std::uint64_t i = 1; i <= subs; ++i) {
    Subscription sub;
    sub.id = i;
    sub.subscriber = i;
    sub.ranges.reserve(kDims);
    for (std::size_t d = 0; d < kDims; ++d) {
      const double lo = rng.uniform(0.0, kDomainHi - 1.0);
      sub.ranges.push_back(Range{lo, lo + 1.0});
    }
    stores.push_back(Envelope::of(StoreSubscription{
        std::move(sub), static_cast<DimId>(i % kDims)}));
    if (stores.size() == 1024 || i == subs) {
      send(std::move(stores));
      stores.clear();
    }
  }
  // Barrier: the wire is FIFO per link, so once this request is acked every
  // store above has been applied.
  {
    MatchRequest barrier;
    barrier.msg.id = 1;
    barrier.msg.values.assign(kDims, 0.0);
    barrier.dim = 0;
    barrier.reply_to = kClient;
    send({Envelope::of(std::move(barrier))});
  }
  const double preload_deadline = now_sec() + 300.0;
  while (client->acks() < 1 && now_sec() < preload_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (client->acks() < 1) {
    std::fprintf(stderr, "micro_parallel: preload barrier timed out\n");
    client_host.stop();
    matcher_host.stop();
    return {};
  }
  const std::uint64_t base_matched = matched_count(matcher);

  // Blast `requests` MatchRequests from one task, cycling the serviced
  // dimension so all lanes carry work.
  const double t0 = now_sec();
  std::vector<Envelope> blast;
  blast.reserve(requests);
  for (std::uint64_t i = 0; i < requests; ++i) {
    MatchRequest req;
    req.msg.id = i + 2;
    req.msg.values.reserve(kDims);
    for (std::size_t d = 0; d < kDims; ++d) {
      req.msg.values.push_back(rng.uniform(0.0, kDomainHi));
    }
    req.dim = static_cast<DimId>(i % kDims);
    blast.push_back(Envelope::of(std::move(req)));
  }
  send(std::move(blast));
  const std::uint64_t want = base_matched + requests;
  const double deadline = now_sec() + 300.0;
  while (matched_count(matcher) < want && now_sec() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double elapsed = now_sec() - t0;
  const std::uint64_t got = matched_count(matcher) - base_matched;

  CellResult result;
  result.tput = static_cast<double>(got) / elapsed;
  const obs::MetricsSnapshot host_snap = matcher_host.wire_metrics().snapshot();
  const auto jobs = host_snap.counters.find("exec.jobs");
  const auto steals = host_snap.counters.find("exec.steals");
  result.exec_jobs =
      jobs != host_snap.counters.end() ? static_cast<double>(jobs->second) : 0;
  result.exec_steals =
      steals != host_snap.counters.end() ? static_cast<double>(steals->second)
                                         : 0;
  client_host.stop();
  matcher_host.stop();
  if (got < requests) {
    std::fprintf(stderr, "micro_parallel: only %llu/%llu matched (cores=%d)\n",
                 (unsigned long long)got, (unsigned long long)requests, cores);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t subs = 100000;
  std::uint64_t requests = 40000;
  bool large = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--subs") == 0 && i + 1 < argc) {
      subs = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--large") == 0) {
      large = true;
    }
  }

  benchutil::header("parallel",
                    "parallel match execution: msgs/sec vs matcher cores");
  const unsigned hw = std::thread::hardware_concurrency();
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc =
      ::sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  benchutil::note("hardware_concurrency=" + std::to_string(hw) +
                  ", nproc=" + std::to_string(nproc) +
                  (ndebug ? ", NDEBUG build" : ", debug build") +
                  " — speedup over cores=1 is bounded by the machine's real "
                  "core count");
  // A 1-core box cannot measure parallel speedup — every multi-worker cell
  // just timeslices one CPU. Flag the run as degraded and skip the
  // speedup_* gauges entirely rather than recording sub-1.0 "speedups" as
  // if they were measurements.
  const bool degraded = hw <= 1;
  if (degraded) {
    benchutil::note(
        "degraded: 1 hardware thread — speedup gauges suppressed");
  }

  obs::MetricsSnapshot snap;
  snap.gauges["parallel.hardware_concurrency"] = static_cast<double>(hw);
  snap.gauges["parallel.nproc"] = static_cast<double>(nproc);
  snap.gauges["parallel.ndebug"] = ndebug ? 1.0 : 0.0;
  snap.gauges["parallel.requests"] = static_cast<double>(requests);
  if (degraded) snap.gauges["parallel.degraded"] = 1.0;

  std::vector<std::uint64_t> sizes{subs};
  if (large) sizes.push_back(1000000);
  const int cores_sweep[] = {1, 2, 4, 8};
  for (const std::uint64_t n : sizes) {
    std::printf("\nsubscriptions=%llu, requests=%llu:\n",
                (unsigned long long)n, (unsigned long long)requests);
    std::printf("%8s %14s %10s %12s %12s\n", "cores", "msgs/sec", "speedup",
                "exec.jobs", "exec.steals");
    double base = 0.0;
    for (const int cores : cores_sweep) {
      const CellResult cell = run_cell(cores, n, requests);
      if (cores == 1) base = cell.tput;
      const double speedup = base > 0.0 ? cell.tput / base : 0.0;
      std::printf("%8d %14.0f %9.2fx %12.0f %12.0f\n", cores, cell.tput,
                  speedup, cell.exec_jobs, cell.exec_steals);
      const std::string suffix =
          "cores" + std::to_string(cores) + "_subs" + std::to_string(n);
      snap.gauges["parallel.tput_" + suffix] = cell.tput;
      if (!degraded) snap.gauges["parallel.speedup_" + suffix] = speedup;
      snap.counters["parallel.jobs_" + suffix] =
          static_cast<std::uint64_t>(cell.exec_jobs);
      snap.counters["parallel.steals_" + suffix] =
          static_cast<std::uint64_t>(cell.exec_steals);
    }
  }

  benchutil::write_bench_json("parallel", snap);
  return 0;
}
