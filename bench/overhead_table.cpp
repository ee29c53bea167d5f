// Reproduces the in-text overhead analysis of §IV-C: the control-plane
// traffic needed to maintain the overlay and the dispatchers' load view.
//
// Paper accounting, per matcher per second:
//   gossip            ~2.9 KB (table exchange with random peers)
//   dispatcher pulls   60*N bytes per dispatcher every 10 s  => ~6*D B/s
//   load pushes        64 bytes to each dispatcher when load changes >10%
//   total             ~2.9K + 20*D bytes/sec
//
// This bench measures the real serialized control-plane bytes flowing
// through the simulator and prints the same breakdown.
//
// Second section (DESIGN.md §13): the flight-recorder overhead budget.
// The recorder is always compiled in, so "off" means the global enable
// flag is false while every instrumentation call site still executes —
// exactly the production recorder-off configuration. Three rows on the
// micro_index-style full-match loop (recorder off / on / on with traced
// spans) and two on the micro_wire-style loopback TCP blast (off / on,
// the wire path's own frame instants and flush spans doing the emitting).
// Emits BENCH_obs.json; the acceptance bar is <= 5% overhead for the
// recorder-on rows.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "attr/schema.h"
#include "bench_util.h"
#include "index/subscription_index.h"
#include "net/tcp_transport.h"
#include "obs/recorder.h"
#include "workload/generators.h"

using namespace bluedove;

namespace {

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class RecMode {
  kOff,         // Recorder::set_enabled(false); call sites still run
  kOn,          // enabled, untraced events (the always-on default)
  kOnTraced,    // enabled, every span/instant carries a trace id
};

/// Full-match probe throughput (messages matched per second) over a
/// FlatBucket index, with the same per-batch span + per-message instant
/// the matcher hot path emits. `mode` selects the recorder configuration.
double match_throughput(SubscriptionIndex& index,
                        const std::vector<Message>& msgs, RecMode mode,
                        std::size_t target_events) {
  static const std::uint16_t batch_name =
      obs::Recorder::intern("bench.match_batch");
  static const std::uint16_t done_name = obs::Recorder::intern("bench.done");
  obs::Recorder::set_enabled(mode != RecMode::kOff);
  std::vector<MatchHit> hits;
  std::vector<std::uint32_t> offsets;
  WorkCounter wc;
  MatchScratch scratch;
  constexpr std::size_t kBatch = 32;
  auto run = [&](std::size_t events) {
    std::size_t done = 0;
    std::size_t cursor = 0;
    std::uint64_t trace = 0;
    while (done < events) {
      const std::size_t nb = std::min(kBatch, msgs.size() - cursor);
      const obs::TraceId tid = mode == RecMode::kOnTraced ? ++trace : 0;
      {
        obs::ScopedSpan span(batch_name, tid, nb);
        hits.clear();
        offsets.clear();
        index.match_batch({msgs.data() + cursor, nb}, hits, offsets, wc,
                          nullptr, &scratch);
      }
      for (std::size_t i = 0; i < nb; ++i) {
        obs::Recorder::instant(done_name, tid, done + i);
      }
      done += nb;
      cursor += nb;
      if (cursor >= msgs.size()) cursor = 0;
    }
    return done;
  };
  run(target_events / 10 + 1);  // warmup
  const double t0 = now_sec();
  const std::size_t events = run(target_events);
  const double tput = static_cast<double>(events) / (now_sec() - t0);
  obs::Recorder::set_enabled(true);
  return tput;
}

/// Counts received publications; the loopback wire throughput receiver.
class CountingNode final : public Node {
 public:
  void start(NodeContext& ctx) override {
    ctx_.store(&ctx, std::memory_order_release);
  }
  void on_receive(NodeId, Envelope env) override {
    if (std::holds_alternative<ClientPublish>(env.payload)) {
      received_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  NodeContext* ctx() const { return ctx_.load(std::memory_order_acquire); }
  std::uint64_t received() const {
    return received_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<NodeContext*> ctx_{nullptr};
  std::atomic<std::uint64_t> received_{0};
};

/// Loopback TCP blast (micro_wire shape: 8 publishes per node task, 64 B
/// payloads). The wire path emits its own recorder events (frame instants,
/// flush spans), so toggling the global enable flag is the entire
/// difference between rows.
double wire_throughput(bool recorder_on, std::uint64_t n) {
  obs::Recorder::set_enabled(recorder_on);
  auto recv_node = std::make_unique<CountingNode>();
  CountingNode* recv = recv_node.get();
  net::TcpHost receiver(1, 0, std::move(recv_node));
  receiver.start();

  auto send_node = std::make_unique<CountingNode>();
  CountingNode* send = send_node.get();
  net::TcpHost sender(2, 0, std::move(send_node));
  sender.add_peer(1, {"127.0.0.1", receiver.port()});
  sender.start();
  while (send->ctx() == nullptr) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const std::string payload(64, 'x');
  const double t0 = now_sec();
  for (std::uint64_t first = 1; first <= n; first += 8) {
    sender.post([ctx = send->ctx(), &payload, first, n] {
      for (std::uint64_t i = first; i < first + 8 && i <= n; ++i) {
        Message msg;
        msg.id = i;
        msg.values = {1.0, 2.0, 3.0, 4.0};
        msg.payload = payload;
        ctx->send(1, Envelope::of(ClientPublish{std::move(msg)}));
      }
    });
  }
  const double deadline = now_sec() + 60.0;
  while (recv->received() < n && now_sec() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double elapsed = now_sec() - t0;
  const std::uint64_t got = recv->received();
  sender.stop();
  receiver.stop();
  obs::Recorder::set_enabled(true);
  if (got < n) {
    std::fprintf(stderr, "overhead_table: only %llu/%llu delivered\n",
                 (unsigned long long)got, (unsigned long long)n);
  }
  return static_cast<double>(got) / elapsed;
}

double overhead_pct(double base, double with) {
  return base > 0.0 ? (base - with) / base * 100.0 : 0.0;
}

void recorder_overhead_section() {
  std::printf("\n");
  benchutil::header("Flight recorder (DESIGN.md sec 13)",
                    "overhead of the always-on recorder");

  // --- full-match probe loop (micro_index configuration) -------------------
  const AttributeSchema schema = AttributeSchema::uniform(4);
  SubscriptionWorkload swl;
  swl.schema = schema;
  SubscriptionGenerator sgen(swl, 99);
  auto index = make_index(IndexKind::kFlatBucket, 0, schema.domain(0));
  for (std::size_t i = 0; i < 8000; ++i) {
    index->insert(std::make_shared<const Subscription>(sgen.next()));
  }
  MessageWorkload mwl;
  mwl.schema = schema;
  MessageGenerator mgen(mwl, 7);
  std::vector<Message> msgs;
  for (int i = 0; i < 4096; ++i) msgs.push_back(mgen.next());

  constexpr std::size_t kTarget = 400000;
  const double m_off =
      match_throughput(*index, msgs, RecMode::kOff, kTarget);
  const double m_on = match_throughput(*index, msgs, RecMode::kOn, kTarget);
  const double m_spans =
      match_throughput(*index, msgs, RecMode::kOnTraced, kTarget);

  std::printf("\nfull-match probe throughput (FlatBucket, 8000 subs, "
              "batch 32):\n");
  std::printf("%-28s %14s %10s\n", "configuration", "msgs/sec", "overhead");
  std::printf("%-28s %14.0f %10s\n", "recorder off", m_off, "-");
  std::printf("%-28s %14.0f %9.2f%%\n", "recorder on", m_on,
              overhead_pct(m_off, m_on));
  std::printf("%-28s %14.0f %9.2f%%\n", "recorder on + traced spans", m_spans,
              overhead_pct(m_off, m_spans));

  // --- loopback wire path (micro_wire configuration) -----------------------
  constexpr std::uint64_t kWireMsgs = 60000;
  wire_throughput(false, kWireMsgs / 10);  // warm the stack / page cache
  const double w_off = wire_throughput(false, kWireMsgs);
  const double w_on = wire_throughput(true, kWireMsgs);

  std::printf("\nloopback TCP blast (8 publishes per task, 64 B payloads):\n");
  std::printf("%-28s %14s %10s\n", "configuration", "msgs/sec", "overhead");
  std::printf("%-28s %14.0f %10s\n", "recorder off", w_off, "-");
  std::printf("%-28s %14.0f %9.2f%%\n", "recorder on", w_on,
              overhead_pct(w_off, w_on));
  std::printf("\nbudget: <= 5%% for the recorder-on rows (negative numbers\n"
              "are run-to-run noise; the recorder never speeds anything "
              "up).\n");

  obs::MetricsSnapshot snap;
  snap.gauges["obs.match_tput_recorder_off"] = m_off;
  snap.gauges["obs.match_tput_recorder_on"] = m_on;
  snap.gauges["obs.match_tput_recorder_on_spans"] = m_spans;
  snap.gauges["obs.match_overhead_pct_on"] = overhead_pct(m_off, m_on);
  snap.gauges["obs.match_overhead_pct_on_spans"] =
      overhead_pct(m_off, m_spans);
  snap.gauges["obs.wire_tput_recorder_off"] = w_off;
  snap.gauges["obs.wire_tput_recorder_on"] = w_on;
  snap.gauges["obs.wire_overhead_pct_on"] = overhead_pct(w_off, w_on);
  benchutil::write_bench_json("obs", snap);
}

}  // namespace

int main() {
  benchutil::header("Overhead (sec IV-C)",
                    "control-plane bytes per matcher per second");

  std::printf("\n%6s %6s %16s %16s %16s\n", "N", "D", "sent B/s", "recv B/s",
              "total B/s");
  for (std::size_t n : {5, 10, 20}) {
    for (std::size_t d : {2, 4}) {
      ExperimentConfig cfg = benchutil::default_config();
      cfg.system = SystemKind::kBlueDove;
      cfg.matchers = n;
      cfg.dispatchers = d;
      cfg.subscriptions = 4000;
      Deployment dep(cfg);
      dep.start();
      // Steady moderate load so load reports fire realistically.
      dep.set_rate(2000.0);
      dep.run_for(5.0);

      // Measure over a 60 s window.
      std::uint64_t sent0 = 0, recv0 = 0;
      for (NodeId id : dep.matcher_ids()) {
        sent0 += dep.sim().traffic(id).bytes_sent;
        recv0 += dep.sim().traffic(id).bytes_received;
      }
      const double window = 60.0;
      dep.run_for(window);
      std::uint64_t sent1 = 0, recv1 = 0;
      for (NodeId id : dep.matcher_ids()) {
        sent1 += dep.sim().traffic(id).bytes_sent;
        recv1 += dep.sim().traffic(id).bytes_received;
      }
      const double per_matcher = static_cast<double>(n) * window;
      const double sent = static_cast<double>(sent1 - sent0) / per_matcher;
      const double recv = static_cast<double>(recv1 - recv0) / per_matcher;
      std::printf("%6zu %6zu %16.0f %16.0f %16.0f\n", n, d, sent, recv,
                  sent + recv);
    }
  }
  std::printf(
      "\npaper: ~2.9 KB/s gossip + 6D B/s pulls + 20D B/s load pushes per\n"
      "matcher — a few KB/s, negligible on gigabit links. Expected shape:\n"
      "roughly flat in N (gossip fanout grows log N but the table grows\n"
      "linearly), slightly increasing with D.\n");

  recorder_overhead_section();
  return 0;
}
