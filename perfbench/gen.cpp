// perfbench_gen — single-process traffic generator for the end-to-end
// benchmark. It drives a running dispatcher/matcher cluster through the
// client edge protocol and checks every delivery against an exact oracle
// computed from the generated inputs.
//
// Threads and connections: the main thread subscribes, paces publishes and
// scrapes stats; one publisher connection and two subscriber connections
// (edge::EdgeClient, one reader thread each). Phases, in order:
//
//   setup    subscribe the whole population, alternating the subscriber
//            connections; setup_s ends when the matchers' scraped
//            segload.dim*.subscriptions gauges equal the copy counts the
//            partition function assigns (a barrier, not a sleep)
//   warmup   closed-loop bursts until every matcher lane has served a
//            request, then 0.5 s open loop at the workload rate (checked,
//            not timed)
//   open     open loop at the workload rate; latency runs from each
//            publish's scheduled send time to its arrival at the subscriber
//   closed   closed loop with a bounded outstanding window; capacity is
//            publishes fully delivered per second
//
// Results go to --out as one JSON object.

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/partition_strategy.h"
#include "core/segment_view.h"
#include "edge/edge_client.h"
#include "net/cluster_table.h"
#include "net/protocol.h"
#include "net/tcp_transport.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "simd/range_kernel.h"
#include "workload.h"

using namespace bluedove;
namespace pb = perfbench;

namespace {

constexpr NodeId kScraperId = 990001;
constexpr double kWarmupSec = 0.5;         // open loop at rate, untimed
constexpr double kWarmupBurstSec = 0.5;    // closed-loop warm-up burst
constexpr int kWarmupRounds = 4;
constexpr int kWindows = 3;  // measured phases split into this many windows
constexpr double kOpenShare = 0.6;         // of --seconds; closed gets the rest
constexpr double kAbandonSec = 2.0;        // closed loop: give up on a publish
constexpr double kDrainSec = 3.0;          // max wait for in-flight deliveries
constexpr double kBarrierStallSec = 10.0;  // gauges unchanged this long: stop
constexpr std::size_t kClosedPubCap = 500'000;  // closed-loop publishes

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until_ns(std::int64_t t) {
  timespec ts{static_cast<time_t>(t / 1000000000),
              static_cast<long>(t % 1000000000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

void sleep_sec(double s) {
  sleep_until_ns(now_ns() + static_cast<std::int64_t>(s * 1e9));
}

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> out;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) continue;
    const auto eq = a.find('=');
    if (eq == std::string::npos) {
      out[a.substr(2)] = "1";
    } else {
      out[a.substr(2, eq - 2)] = a.substr(eq + 1);
    }
  }
  return out;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

net::TcpEndpoint endpoint(const std::string& hostport) {
  net::TcpEndpoint ep;
  const auto colon = hostport.rfind(':');
  ep.host = hostport.substr(0, colon);
  ep.port = static_cast<std::uint16_t>(std::stoul(hostport.substr(colon + 1)));
  return ep;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      std::min<double>(q * static_cast<double>(v.size()),
                       static_cast<double>(v.size() - 1)));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

// ---------------------------------------------------------------------------
// /proc readings for the server processes
// ---------------------------------------------------------------------------

struct ProcSample {
  double user_s = 0.0;
  double sys_s = 0.0;
  double rss_mb = 0.0;
  double ctx_switches = 0.0;
};

ProcSample read_proc(int pid) {
  ProcSample s;
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(stat, line);
  const auto close = line.rfind(')');
  if (close != std::string::npos) {
    std::istringstream rest(line.substr(close + 2));
    std::vector<std::string> f;
    std::string tok;
    while (rest >> tok) f.push_back(tok);
    const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
    if (f.size() > 12) {
      s.user_s = std::stod(f[11]) / tick;  // field 14: utime
      s.sys_s = std::stod(f[12]) / tick;   // field 15: stime
    }
  }
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  while (std::getline(status, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, colon);
    const double val = std::atof(line.c_str() + colon + 1);
    if (key == "VmRSS") s.rss_mb = val / 1024.0;
    if (key == "voluntary_ctxt_switches" ||
        key == "nonvoluntary_ctxt_switches") {
      s.ctx_switches += val;
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Stats scraping (StatsRequest over the node port, or the --stats-json file)
// ---------------------------------------------------------------------------

bool scrape(const net::TcpEndpoint& ep, obs::MetricsSnapshot& out) {
  Envelope resp;
  if (!net::TcpHost::request_reply(ep, kScraperId, Envelope::of(StatsRequest{}),
                                   &resp, 5.0)) {
    return false;
  }
  const auto* sr = std::get_if<StatsResponse>(&resp.payload);
  return sr != nullptr && obs::from_json(sr->json, out);
}

obs::MetricsSnapshot read_stats_file(const std::string& path) {
  obs::MetricsSnapshot snap;
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  obs::from_json(ss.str(), snap);
  return snap;
}

double counter(const obs::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it != s.counters.end() ? static_cast<double>(it->second) : 0.0;
}

double gauge(const obs::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.gauges.find(name);
  return it != s.gauges.end() ? it->second : 0.0;
}

/// after - before of one histogram (bucket-wise), for per-phase quantiles.
obs::HistogramSnapshot hist_delta(const obs::MetricsSnapshot& before,
                                  const obs::MetricsSnapshot& after,
                                  const std::string& name) {
  obs::HistogramSnapshot d;
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return d;
  d = a->second;
  const auto b = before.histograms.find(name);
  if (b == before.histograms.end()) return d;
  for (std::size_t i = 0; i < d.counts.size() && i < b->second.counts.size();
       ++i) {
    d.counts[i] -= b->second.counts[i];
  }
  d.count -= b->second.count;
  d.sum_units -= b->second.sum_units;
  return d;
}

double hist_sum_s(const obs::HistogramSnapshot& h) {
  return h.unit * static_cast<double>(h.sum_units);
}

// ---------------------------------------------------------------------------
// Oracle: expected deliveries per message
// ---------------------------------------------------------------------------

/// Exact match counts: candidates come from a grid over dims 0 and 1 (a sub
/// is listed in every cell its box overlaps), then every predicate of every
/// candidate is checked. Independent of the system's index code.
std::vector<std::uint32_t> expected_counts(const pb::Boxes& subs,
                                           const pb::Points& msgs) {
  constexpr int kG = 50;
  constexpr double kCell = pb::kDomain / kG;
  const auto cell = [](double v) {
    return std::clamp(static_cast<int>(v / kCell), 0, kG - 1);
  };
  // Cell (a, b) lists every sub whose dim-0 x dim-1 box overlaps it.
  std::vector<std::vector<std::uint32_t>> grid(kG * kG);
  for (std::size_t i = 0; i < subs.size(); ++i) {
    const int a1 = cell(std::nextafter(subs.hi[0][i], 0.0));
    const int b1 = cell(std::nextafter(subs.hi[1][i], 0.0));
    for (int a = cell(subs.lo[0][i]); a <= a1; ++a) {
      for (int b = cell(subs.lo[1][i]); b <= b1; ++b) {
        grid[a * kG + b].push_back(static_cast<std::uint32_t>(i));
      }
    }
  }
  std::vector<std::uint32_t> out(msgs.size(), 0);
  const unsigned nt = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < nt; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t m = t; m < msgs.size(); m += nt) {
        const double* v = msgs.at(m);
        for (std::uint32_t i : grid[cell(v[0]) * kG + cell(v[1])]) {
          out[m] += subs.contains(i, v) ? 1 : 0;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  return out;
}

// ---------------------------------------------------------------------------
// Run state
// ---------------------------------------------------------------------------

struct Rec {
  std::uint64_t pub;
  std::uint64_t client_id;
  std::uint64_t edge_seq;
  std::int64_t arrival_ns;
};

struct TracedRec {
  std::uint64_t trace_id;
  std::uint64_t pub;
  std::int64_t arrival_ns;
};

struct SubConn {
  std::uint64_t setup_count = 0;  ///< setup subs on this connection
  std::unique_ptr<edge::EdgeClient> client;
  std::vector<Rec> recs;          ///< reader thread only, until disconnect
  std::vector<TracedRec> traced;
};

class Run {
 public:
  Run(pb::Workload w, std::uint64_t seed, double seconds)
      : w_(std::move(w)), seed_(seed), seconds_(seconds) {}

  pb::Workload w_;
  std::uint64_t seed_;
  double seconds_;
  pb::Inputs in_;
  std::vector<std::uint32_t> expected_;  ///< matches per pool message

  // Per publish (indexed by bench publish sequence number).
  std::size_t max_pubs_ = 0;
  std::vector<std::int64_t> sched_ns_;
  std::vector<std::int64_t> send_ns_;
  std::unique_ptr<std::atomic<std::int32_t>[]> remaining_;
  std::unique_ptr<std::atomic<std::int64_t>[]> done_ns_;
  std::size_t published_ = 0;
  std::size_t cursor_ = 0;  ///< oldest publish not yet complete/abandoned
  std::uint64_t abandoned_ = 0;
  std::uint64_t refused_ = 0;
  std::uint64_t ops_ = 0;
  std::vector<double> publish_call_us_;

  std::unique_ptr<edge::EdgeClient> pub_client_;
  SubConn conns_[2];

  std::size_t pool() const { return in_.msgs.size(); }
  const double* msg_of(std::uint64_t pub) const {
    return in_.msgs.at(pub % pool());
  }

  /// (connection, client sub id) -> index into the population, or
  /// w_.subs for an id this run never minted. Client ids are minted 1, 2,
  /// ... per connection in subscribe() call order, and sub i goes to
  /// connection i % 2.
  std::uint64_t key_of(int c, std::uint64_t id) const {
    const std::uint64_t n = conns_[c].setup_count;
    if (id >= 1 && id <= n) return 2 * (id - 1) + static_cast<std::uint64_t>(c);
    return w_.subs;
  }

  void on_event(int c, const EdgeEvent& ev) {
    const std::int64_t t = now_ns();
    SubConn& conn = conns_[c];
    std::uint64_t pub = ~0ull;
    if (ev.delivery.payload.size() >= 8) {
      std::memcpy(&pub, ev.delivery.payload.data(), 8);
    }
    conn.recs.push_back(Rec{pub, ev.delivery.sub_id, ev.seq, t});
    if (ev.delivery.trace_id != 0) {
      conn.traced.push_back(TracedRec{ev.delivery.trace_id, pub, t});
    }
    if (pub >= max_pubs_) return;
    const std::uint64_t key = key_of(c, ev.delivery.sub_id);
    if (key >= w_.subs || !in_.boxes.contains(key, msg_of(pub))) return;
    if (remaining_[pub].fetch_sub(1) == 1) done_ns_[pub].store(t);
  }

  void publish(std::uint64_t pub, std::int64_t sched) {
    const double* v = msg_of(pub);
    std::string payload(w_.payload, 'x');
    std::memcpy(payload.data(), &pub, 8);
    const std::int32_t expect =
        static_cast<std::int32_t>(expected_[pub % pool()]);
    remaining_[pub].store(expect);
    sched_ns_[pub] = sched;
    const std::int64_t t0 = now_ns();
    send_ns_[pub] = t0;
    if (expect == 0) done_ns_[pub].store(t0);
    ++ops_;
    if (pub_client_->publish(std::vector<Value>(v, v + pb::kDims),
                             std::move(payload)) == 0) {
      ++refused_;
    }
    publish_call_us_.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    published_ = pub + 1;
  }

  bool complete(std::size_t pub) const {
    return done_ns_[pub].load() != 0;
  }

  /// Advances the window cursor past complete publishes; abandons the
  /// oldest if it has been outstanding longer than kAbandonSec.
  void advance_cursor(std::int64_t now) {
    while (cursor_ < published_) {
      if (complete(cursor_)) {
        ++cursor_;
      } else if (now - send_ns_[cursor_] > kAbandonSec * 1e9) {
        ++abandoned_;
        ++cursor_;
      } else {
        break;
      }
    }
  }

  /// Open loop: `count` publishes from `first`, every 1/rate from t0.
  void open_loop(std::uint64_t first, std::size_t count, std::int64_t t0) {
    const double period = 1e9 / w_.rate;
    for (std::size_t k = 0; k < count; ++k) {
      const std::int64_t sched =
          t0 + static_cast<std::int64_t>(static_cast<double>(k) * period);
      sleep_until_ns(sched);
      publish(first + k, sched);
    }
  }

  /// Closed loop until `t_end`: a publish goes out whenever fewer than
  /// `window` are outstanding. Call start_window() when a closed phase
  /// begins, so publishes still in flight from before do not count.
  void start_window() { cursor_ = published_; }
  void closed_loop(std::int64_t t_end) {
    for (std::int64_t t = now_ns(); t < t_end; t = now_ns()) {
      advance_cursor(t);
      if (published_ - cursor_ < w_.window && published_ < max_pubs_) {
        publish(published_, t);
      } else {
        sleep_until_ns(t + 20000);
      }
    }
  }

  /// Publishes from `first` on that completed inside [t0, t1).
  std::size_t completed_in(std::size_t first, std::int64_t t0,
                           std::int64_t t1) const {
    std::size_t done = 0;
    for (std::size_t p = first; p < published_; ++p) {
      const std::int64_t d = done_ns_[p].load();
      done += (d >= t0 && d < t1) ? 1 : 0;
    }
    return done;
  }

  /// Waits until every publish so far is complete (or kDrainSec passes).
  void drain() {
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(kDrainSec * 1e9);
    std::size_t p = 0;
    while (p < published_ && now_ns() < deadline) {
      if (complete(p)) {
        ++p;
      } else {
        sleep_sec(0.001);
      }
    }
  }
};

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

class Json {
 public:
  void num(const std::string& k, double v) {
    char buf[64];
    if (!std::isfinite(v)) v = 0.0;
    std::snprintf(buf, sizeof buf, "%.9g", v);
    field(k, buf);
  }
  void str(const std::string& k, const std::string& v) {
    field(k, "\"" + v + "\"");
  }
  void raw(const std::string& k, const std::string& v) { field(k, v); }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + k + "\":" + v;
  }
  std::string body_;
};

}  // namespace

int main(int argc, char** argv) {
  auto args = parse_args(argc, argv);
  auto arg = [&](const std::string& k, const std::string& dflt = "") {
    const auto it = args.find(k);
    return it != args.end() ? it->second : dflt;
  };
  if (arg("edge").empty() || arg("matchers").empty() || arg("out").empty() ||
      arg("pids").empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_gen --workload=W --seed=N --seconds=S "
                 "--edge=H:P --dispatcher=H:P --matchers=ID@H:P,... "
                 "--pids=D,M,... --out=FILE "
                 "[--trace=1 --stats-files=F,... --trace-dir=DIR]\n");
    return 2;
  }
  const bool traced = arg("trace", "0") == "1";
  Run run(pb::workload_by_name(arg("workload", "selective")),
          std::stoull(arg("seed", "1")), std::stod(arg("seconds", "10")));
  const pb::Workload& w = run.w_;

  std::vector<NodeId> matcher_ids;
  std::vector<net::TcpEndpoint> matcher_eps;
  for (const std::string& m : split(arg("matchers"), ',')) {
    const auto at = m.find('@');
    matcher_ids.push_back(static_cast<NodeId>(std::stoul(m.substr(0, at))));
    matcher_eps.push_back(endpoint(m.substr(at + 1)));
  }
  const net::TcpEndpoint dispatcher_ep = endpoint(arg("dispatcher"));
  std::vector<int> pids;
  for (const std::string& p : split(arg("pids"), ',')) {
    pids.push_back(std::stoi(p));
  }
  const std::vector<std::string> stats_files = split(arg("stats-files"), ',');

  // ---- inputs and oracle ---------------------------------------------------
  const double open_sec = run.seconds_ * kOpenShare;
  const double closed_sec = run.seconds_ - open_sec;
  const std::size_t warm_count =
      static_cast<std::size_t>(std::llround(w.rate * kWarmupSec));
  const std::size_t open_count =
      static_cast<std::size_t>(std::llround(w.rate * open_sec));
  run.in_ = pb::make_inputs(w, run.seed_, warm_count + open_count + 100000);
  run.expected_ = expected_counts(run.in_.boxes, run.in_.msgs);
  run.max_pubs_ = warm_count + open_count + kClosedPubCap;
  run.sched_ns_.assign(run.max_pubs_, 0);
  run.send_ns_.assign(run.max_pubs_, 0);
  run.remaining_ =
      std::make_unique<std::atomic<std::int32_t>[]>(run.max_pubs_);
  run.done_ns_ = std::make_unique<std::atomic<std::int64_t>[]>(run.max_pubs_);
  for (std::size_t i = 0; i < run.max_pubs_; ++i) {
    run.remaining_[i].store(0);
    run.done_ns_[i].store(0);
  }

  // Copies per (matcher, dim) the partition function assigns: the setup
  // barrier waits for the matchers' gauges to reach exactly these.
  const std::vector<Range> domains(pb::kDims, Range{0.0, pb::kDomain});
  const SegmentView view =
      SegmentView::build(bootstrap_table(matcher_ids, domains), pb::kDims);
  const MPartition partition;
  std::map<std::pair<NodeId, DimId>, double> expected_copies;
  for (const Subscription& sub : run.in_.subs) {
    for (const Assignment& a : partition.assign(view, sub)) {
      expected_copies[{a.matcher, a.dim}] += 1.0;
    }
  }

  // ---- connections ---------------------------------------------------------
  const net::TcpEndpoint edge_ep = endpoint(arg("edge"));
  run.pub_client_ = std::make_unique<edge::EdgeClient>(edge_ep);
  for (int c = 0; c < 2; ++c) {
    run.conns_[c].setup_count = (w.subs + 1 - static_cast<std::uint32_t>(c)) / 2;
    run.conns_[c].recs.reserve(1u << 20);
    run.conns_[c].client = std::make_unique<edge::EdgeClient>(
        edge_ep, [&run, c](const EdgeEvent& ev) { run.on_event(c, ev); });
  }
  if (!run.pub_client_->connect() || !run.conns_[0].client->connect() ||
      !run.conns_[1].client->connect()) {
    std::fprintf(stderr, "perfbench_gen: edge connect failed\n");
    return 1;
  }

  // ---- setup ---------------------------------------------------------------
  const std::int64_t setup_t0 = now_ns();
  for (std::size_t i = 0; i < w.subs; ++i) {
    ++run.ops_;
    if (run.conns_[i % 2].client->subscribe(run.in_.subs[i].ranges) == 0) {
      ++run.refused_;
    }
  }
  const std::int64_t sent_ns = now_ns();
  double missing_copies = 0.0;
  double last_total = -1.0;
  std::int64_t last_change = now_ns();
  std::int64_t setup_end = 0;
  for (;;) {
    double missing = 0.0;
    double total = 0.0;
    bool scraped = true;
    for (std::size_t m = 0; m < matcher_ids.size(); ++m) {
      obs::MetricsSnapshot snap;
      if (!scrape(matcher_eps[m], snap)) {
        scraped = false;
        break;
      }
      for (int d = 0; d < pb::kDims; ++d) {
        const double have =
            gauge(snap, "segload.dim" + std::to_string(d) + ".subscriptions");
        const auto it = expected_copies.find(
            {matcher_ids[m], static_cast<DimId>(d)});
        const double want = it != expected_copies.end() ? it->second : 0.0;
        missing += std::abs(want - have);
        total += have;
      }
    }
    const std::int64_t t = now_ns();
    if (scraped && missing == 0.0) {
      setup_end = t;
      break;
    }
    if (total != last_total) {
      last_total = total;
      last_change = t;
    } else if (t - last_change > kBarrierStallSec * 1e9) {
      missing_copies = missing;
      setup_end = t;
      std::fprintf(stderr,
                   "perfbench_gen: setup barrier stalled, %.0f subscription "
                   "copies missing\n",
                   missing);
      break;
    }
    sleep_sec(0.002);
  }
  const double setup_s = static_cast<double>(setup_end - setup_t0) / 1e9;
  double rss_mb = 0.0;
  for (int pid : pids) rss_mb += read_proc(pid).rss_mb;

  Json out;
  out.num("setup_s", setup_s);
  out.num("subscribe_send_s", static_cast<double>(sent_ns - setup_t0) / 1e9);
  out.num("server_rss_mb", rss_mb);
  out.num("missing_copies", missing_copies);
  out.str("simd_kernel", simd::active_kernel().name);
  out.num("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  {
    Json wj;
    wj.str("name", w.name);
    wj.num("subs", w.subs);
    wj.num("width", w.width);
    wj.num("sigma", pb::kSigma);
    wj.num("payload_bytes", w.payload);
    wj.num("rate_per_s", w.rate);
    wj.num("closed_window", w.window);
    wj.num("warmup_open_s", kWarmupSec);
    wj.num("warmup_burst_s", kWarmupBurstSec);
    wj.num("open_s", open_sec);
    wj.num("closed_s", closed_sec);
    double mean = 0.0;
    for (std::uint32_t e : run.expected_) mean += e;
    wj.num("mean_matches_per_pub",
           mean / static_cast<double>(std::max<std::size_t>(run.pool(), 1)));
    out.raw("workload", wj.done());
  }
  // ---- warmup + open loop --------------------------------------------------
  // A matcher builds each lane's first index snapshot lazily, on the node
  // thread, at that lane's first request. Closed-loop bursts (which load
  // every lane the forwarding policy will use) run until each (matcher,
  // dim) lane holding copies has served a request, so that one-time cost
  // lands before timing instead of at a random point of the open phase.
  int warm_rounds = 0;
  for (bool cold = true; cold && warm_rounds < kWarmupRounds; ++warm_rounds) {
    run.start_window();
    run.closed_loop(now_ns() + static_cast<std::int64_t>(kWarmupBurstSec * 1e9));
    run.drain();
    cold = false;
    for (std::size_t m = 0; m < matcher_eps.size(); ++m) {
      obs::MetricsSnapshot snap;
      scrape(matcher_eps[m], snap);
      for (int d = 0; d < pb::kDims; ++d) {
        const std::string lane = "segload.dim" + std::to_string(d);
        cold = cold || (gauge(snap, lane + ".subscriptions") > 0 &&
                        counter(snap, lane + ".requests") == 0);
      }
    }
  }
  run.open_loop(run.published_, warm_count, now_ns());
  run.drain();

  obs::MetricsSnapshot disp0, disp1;
  std::vector<obs::MetricsSnapshot> match0(matcher_eps.size()),
      match1(matcher_eps.size());
  std::vector<obs::MetricsSnapshot> file0, file1;
  if (traced) {
    scrape(dispatcher_ep, disp0);
    for (std::size_t m = 0; m < matcher_eps.size(); ++m) {
      scrape(matcher_eps[m], match0[m]);
    }
    sleep_sec(0.3);  // let each node write a fresh --stats-json snapshot
    for (const std::string& f : stats_files) {
      file0.push_back(read_stats_file(f));
    }
  }
  const std::int64_t rus0 = [] {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::int64_t>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
               1000000 +
           ru.ru_utime.tv_usec + ru.ru_stime.tv_usec;
  }();
  // The open phase runs as kWindows back-to-back windows on one schedule;
  // per-window figures are reported as their median (see run.py).
  const std::size_t publish_calls0 = run.publish_call_us_.size();
  const std::uint64_t open_first = run.published_;
  const std::uint64_t open_end = open_first + open_count;
  const std::int64_t open_t0 = now_ns();
  const double period_ns = 1e9 / w.rate;
  std::vector<std::uint64_t> win_first;  // first publish of each window
  std::vector<std::vector<ProcSample>> win_proc;
  for (int i = 0; i <= kWindows; ++i) {
    win_first.push_back(open_first + open_count * i / kWindows);
    win_proc.emplace_back();
    for (int pid : pids) win_proc.back().push_back(read_proc(pid));
    if (i == kWindows) break;
    const std::uint64_t first = win_first.back();
    const std::uint64_t count = open_first + open_count * (i + 1) / kWindows -
                                first;
    run.open_loop(first, count,
                  open_t0 + static_cast<std::int64_t>(
                                static_cast<double>(first - open_first) *
                                period_ns));
  }
  const std::vector<ProcSample>& proc0 = win_proc.front();
  const std::vector<ProcSample>& proc1 = win_proc.back();
  run.drain();
  if (traced) {
    // Flight-recorder rings keep the newest events per thread, so dump them
    // right after the open phase, while its sampled publishes survive.
    const std::string dir = arg("trace-dir");
    std::vector<std::pair<std::string, net::TcpEndpoint>> nodes = {
        {"dispatcher", dispatcher_ep}};
    for (std::size_t m = 0; m < matcher_eps.size(); ++m) {
      nodes.push_back({"matcher" + std::to_string(m), matcher_eps[m]});
    }
    for (const auto& [name, ep] : nodes) {
      Envelope resp;
      if (net::TcpHost::request_reply(ep, kScraperId,
                                      Envelope::of(TraceDumpRequest{}), &resp,
                                      10.0)) {
        if (const auto* tr = std::get_if<TraceDumpResponse>(&resp.payload)) {
          std::ofstream(dir + "/recorder_" + name + ".json") << tr->json;
        }
      }
    }
    scrape(dispatcher_ep, disp1);
    for (std::size_t m = 0; m < matcher_eps.size(); ++m) {
      scrape(matcher_eps[m], match1[m]);
    }
    sleep_sec(0.3);
    for (const std::string& f : stats_files) {
      file1.push_back(read_stats_file(f));
    }
  }

  // ---- closed loop ---------------------------------------------------------
  const std::size_t closed_first = run.published_;
  const std::int64_t closed_t0 = now_ns();
  const double win_ns = closed_sec * 1e9 / kWindows;
  run.start_window();
  run.closed_loop(closed_t0 + static_cast<std::int64_t>(closed_sec * 1e9));
  const std::size_t closed_pubs = run.published_ - closed_first;
  run.drain();
  sleep_sec(0.3);  // stragglers: late duplicates or extras still count
  const std::int64_t rus1 = [] {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::int64_t>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
               1000000 +
           ru.ru_utime.tv_usec + ru.ru_stime.tv_usec;
  }();
  std::vector<obs::MetricsSnapshot> file_end;
  if (traced) {
    for (const std::string& f : stats_files) {
      file_end.push_back(read_stats_file(f));
    }
  }
  run.pub_client_->disconnect();
  run.conns_[0].client->disconnect();
  run.conns_[1].client->disconnect();

  // ---- oracle check --------------------------------------------------------
  // A delivery is valid when its publish was sent, its client sub id maps
  // to a subscription of the population, and that predicate holds for the
  // publish. Valid deliveries are then unique (else duplicates) and, since
  // each is an expected pair, missing = expected - valid unique.
  const std::uint64_t key_space = w.subs + 1;
  std::vector<std::uint64_t> seen;  // pub * key_space + key, valid only
  std::uint64_t extra = 0, dup = 0, seq_gaps = 0;
  std::vector<std::pair<std::uint64_t, double>> lat_by_pub;
  for (int c = 0; c < 2; ++c) {
    std::uint64_t prev_seq = 0;
    for (const Rec& r : run.conns_[c].recs) {
      if (r.edge_seq != prev_seq + 1) ++seq_gaps;
      prev_seq = r.edge_seq;
      const std::uint64_t key = run.key_of(c, r.client_id);
      if (r.pub >= run.published_ || key >= w.subs ||
          !run.in_.boxes.contains(key, run.msg_of(r.pub))) {
        ++extra;
        continue;
      }
      seen.push_back(r.pub * key_space + key);
      if (r.pub >= open_first && r.pub < open_end) {
        lat_by_pub.emplace_back(
            r.pub,
            static_cast<double>(r.arrival_ns - run.sched_ns_[r.pub]) / 1e6);
      }
    }
  }
  std::sort(seen.begin(), seen.end());
  const auto uniq_end = std::unique(seen.begin(), seen.end());
  dup = static_cast<std::uint64_t>(seen.end() - uniq_end);
  seen.erase(uniq_end, seen.end());
  std::uint64_t expected_total = 0;
  for (std::size_t p = 0; p < run.published_; ++p) {
    expected_total += run.expected_[p % run.pool()];
  }
  const std::uint64_t missing =
      expected_total - std::min<std::uint64_t>(expected_total, seen.size());
  const std::uint64_t failed = missing + extra + dup + run.refused_ +
                               static_cast<std::uint64_t>(missing_copies);
  const std::uint64_t attempted = run.ops_ + expected_total;

  // ---- metrics -------------------------------------------------------------
  std::vector<double> lateness_ms;
  for (std::uint64_t p = open_first; p < open_end; ++p) {
    lateness_ms.push_back(
        static_cast<double>(run.send_ns_[p] - run.sched_ns_[p]) / 1e6);
  }
  double server_cpu_s = 0.0;
  for (std::size_t i = 0; i < pids.size(); ++i) {
    server_cpu_s += (proc1[i].user_s - proc0[i].user_s) +
                    (proc1[i].sys_s - proc0[i].sys_s);
  }
  // Per-window figures of the open and closed phases.
  std::vector<double> win_p50, win_p99, win_late, win_cpu, win_capacity;
  for (int i = 0; i < kWindows; ++i) {
    std::vector<double> lat;
    for (const auto& [pub, ms] : lat_by_pub) {
      if (pub >= win_first[i] && pub < win_first[i + 1]) lat.push_back(ms);
    }
    std::vector<double> late;
    for (std::uint64_t p = win_first[i]; p < win_first[i + 1]; ++p) {
      late.push_back(static_cast<double>(run.send_ns_[p] - run.sched_ns_[p]) /
                     1e6);
    }
    win_late.push_back(quantile(late, 0.99));
    win_p50.push_back(quantile(lat, 0.50));
    win_p99.push_back(quantile(lat, 0.99));
    double cpu = 0.0;
    for (std::size_t k = 0; k < pids.size(); ++k) {
      cpu += (win_proc[i + 1][k].user_s - win_proc[i][k].user_s) +
             (win_proc[i + 1][k].sys_s - win_proc[i][k].sys_s);
    }
    win_cpu.push_back(cpu * 1e6 /
                      static_cast<double>(win_first[i + 1] - win_first[i]));
    const auto t0 = closed_t0 + static_cast<std::int64_t>(win_ns * i);
    const auto t1 = closed_t0 + static_cast<std::int64_t>(win_ns * (i + 1));
    win_capacity.push_back(
        static_cast<double>(run.completed_in(closed_first, t0, t1)) /
        (static_cast<double>(t1 - t0) / 1e9));
  }
  const double kpubs = static_cast<double>(open_count) / 1000.0;
  std::vector<double> call_us(run.publish_call_us_.begin() +
                                  static_cast<std::ptrdiff_t>(publish_calls0),
                              run.publish_call_us_.begin() +
                                  static_cast<std::ptrdiff_t>(
                                      publish_calls0 + open_count));

  std::vector<double> lat_ms;
  for (const auto& pm : lat_by_pub) lat_ms.push_back(pm.second);
  out.num("delivery_p50_ms", quantile(lat_ms, 0.50));
  out.num("delivery_p99_ms", quantile(lat_ms, 0.99));
  out.num("latency_samples", static_cast<double>(lat_ms.size()));
  const auto list = [](const std::vector<double>& v) {
    std::string s = "[";
    for (double x : v) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.9g", s.size() > 1 ? "," : "", x);
      s += buf;
    }
    return s + "]";
  };
  out.raw("windows.delivery_p50_ms", list(win_p50));
  out.raw("windows.delivery_p99_ms", list(win_p99));
  out.raw("windows.lateness_p99_ms", list(win_late));
  out.raw("windows.server_cpu_ms_per_kpub", list(win_cpu));
  out.raw("windows.capacity_pubs_per_s", list(win_capacity));
  out.num("open_pubs", static_cast<double>(open_count));
  out.num("warmup_rounds", warm_rounds);
  out.num("open_elapsed_s",
          static_cast<double>(run.send_ns_[open_end - 1] - open_t0) / 1e9);
  out.num("capacity_pubs_per_s",
          static_cast<double>(run.completed_in(
              closed_first, closed_t0,
              closed_t0 + static_cast<std::int64_t>(closed_sec * 1e9))) /
              closed_sec);
  out.num("closed_pubs", static_cast<double>(closed_pubs));
  out.num("closed_abandoned", static_cast<double>(run.abandoned_));
  out.num("server_cpu_ms_per_kpub", server_cpu_s * 1000.0 / kpubs);
  out.num("gen.lateness_p99_ms", quantile(lateness_ms, 0.99));
  out.num("gen.lateness_max_ms", quantile(lateness_ms, 1.0));
  out.num("gen.cpu_s", static_cast<double>(rus1 - rus0) / 1e6);
  out.num("client.publish_call_us_p50", quantile(call_us, 0.5));
  {
    Json o;
    o.num("attempted", static_cast<double>(attempted));
    o.num("failed", static_cast<double>(failed));
    o.num("expected_deliveries", static_cast<double>(expected_total));
    o.num("missing", static_cast<double>(missing));
    o.num("extra", static_cast<double>(extra));
    o.num("duplicate", static_cast<double>(dup));
    o.num("refused", static_cast<double>(run.refused_));
    o.num("seq_gaps", static_cast<double>(seq_gaps));
    out.raw("oracle", o.done());
  }

  if (traced) {
    Json l;
    const double pubs = static_cast<double>(open_count);
    // matcher: live scrapes, summed over matchers.
    obs::MetricsSnapshot m0, m1;
    std::vector<double> reqs;
    for (std::size_t m = 0; m < matcher_eps.size(); ++m) {
      m0.merge(match0[m]);
      m1.merge(match1[m]);
      reqs.push_back(counter(match1[m], "matcher.requests") -
                     counter(match0[m], "matcher.requests"));
    }
    const obs::HistogramSnapshot q = hist_delta(m0, m1, "matcher.queue_seconds");
    l.num("matcher.queue_wait_p50_ms", q.quantile(0.50) * 1e3);
    l.num("matcher.queue_wait_p99_ms", q.quantile(0.99) * 1e3);
    l.num("matcher.busy_frac",
          hist_sum_s(hist_delta(m0, m1, "matcher.match_seconds")) / open_sec);
    l.num("matcher.deliveries_per_pub",
          (counter(m1, "matcher.deliveries") - counter(m0, "matcher.deliveries")) /
              pubs);
    double mu = 0.0, ms = 0.0;
    for (std::size_t i = 1; i < pids.size(); ++i) {
      mu += proc1[i].user_s - proc0[i].user_s;
      ms += proc1[i].sys_s - proc0[i].sys_s;
    }
    l.num("matcher.cpu_user_s", mu);
    l.num("matcher.cpu_sys_s", ms);
    double mean_req = 0.0;
    for (double r : reqs) mean_req += r / static_cast<double>(reqs.size());
    l.num("dispatcher.forward_skew",
          mean_req > 0 ? *std::max_element(reqs.begin(), reqs.end()) / mean_req
                       : 0.0);
    l.num("dispatcher.dropped_no_candidate",
          counter(disp1, "dispatcher.dropped_no_candidate"));
    l.num("dispatcher.cpu_user_s", proc1[0].user_s - proc0[0].user_s);
    l.num("dispatcher.cpu_sys_s", proc1[0].sys_s - proc0[0].sys_s);
    l.num("dispatcher.ctx_switches_per_kpub",
          (proc1[0].ctx_switches - proc0[0].ctx_switches) / kpubs);
    // edge: the dispatcher's StatsResponse carries the edge registry.
    const double edge_deliv =
        counter(disp1, "edge.deliveries") - counter(disp0, "edge.deliveries");
    l.num("edge.frames_per_delivery",
          (counter(disp1, "edge.frames_out") - counter(disp0, "edge.frames_out")) /
              std::max(edge_deliv, 1.0));
    l.num("edge.bytes_out_per_delivery",
          (counter(disp1, "edge.bytes_out") - counter(disp0, "edge.bytes_out")) /
              std::max(edge_deliv, 1.0));
    l.num("edge.flush_p99_ms",
          hist_delta(disp0, disp1, "edge.delivery_latency").quantile(0.99) *
              1e3);
    l.num("edge.queue_high_water", gauge(disp1, "edge.queue_high_water"));
    l.num("edge.evictions", counter(disp1, "edge.evictions"));
    l.num("edge.replay_overflow", counter(disp1, "edge.replay_overflow"));
    // wire + exec: only the --stats-json export carries the transport
    // registry (the runtime pool registers there too).
    obs::MetricsSnapshot f0, f1, fend, mf0, mf1;
    for (std::size_t i = 0; i < file0.size() && i < file1.size(); ++i) {
      f0.merge(file0[i]);
      f1.merge(file1[i]);
      if (i > 0) {
        mf0.merge(file0[i]);
        mf1.merge(file1[i]);
      }
    }
    for (const auto& s : file_end) fend.merge(s);
    const auto fdelta = [&](const std::string& n) {
      return counter(f1, n) - counter(f0, n);
    };
    l.num("wire.envelopes_per_frame",
          fdelta("wire.envelopes_sent") / std::max(fdelta("wire.frames_sent"), 1.0));
    l.num("wire.bytes_per_pub", fdelta("wire.bytes_sent") / pubs);
    l.num("wire.queue_full_drops", counter(fend, "wire.queue_full_drops"));
    l.num("wire.send_error_drops", counter(fend, "wire.send_error_drops"));
    l.num("wire.payload_copies", counter(fend, "wire.payload_copies"));
    l.num("exec.run_s", hist_sum_s(hist_delta(mf0, mf1, "exec.run_seconds")));
    l.num("exec.queue_wait_s",
          hist_sum_s(hist_delta(mf0, mf1, "exec.queue_seconds")));
    const double jobs = counter(mf1, "exec.jobs") - counter(mf0, "exec.jobs");
    l.num("exec.steals_per_job",
          (counter(mf1, "exec.steals") - counter(mf0, "exec.steals")) /
              std::max(jobs, 1.0));
    l.num("exec.rejects", counter(fend, "exec.rejects"));
    out.raw("layer", l.done());

    // Bench-side spans: one publish -> last delivery span per 64th open
    // publish, plus the traced (sampled) deliveries for stage attribution.
    std::vector<std::int64_t> last(open_count, 0);
    for (int c = 0; c < 2; ++c) {
      for (const Rec& r : run.conns_[c].recs) {
        if (r.pub >= open_first && r.pub < open_end) {
          auto& t = last[r.pub - open_first];
          t = std::max(t, r.arrival_ns);
        }
      }
    }
    const std::string dir = arg("trace-dir");
    std::ofstream spans(dir + "/spans_gen.json");
    spans << "{\"traceEvents\":[";
    bool first = true;
    for (std::size_t k = 0; k < open_count; k += 64) {
      const std::uint64_t p = open_first + k;
      if (last[k] == 0) continue;
      spans << (first ? "" : ",\n") << "{\"name\":\"publish->deliver\","
            << "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << run.sched_ns_[p] / 1000 << ",\"dur\":"
            << (last[k] - run.sched_ns_[p]) / 1000
            << ",\"args\":{\"pub\":" << p << "}}";
      first = false;
    }
    spans << "]}\n";
    std::ofstream tr(dir + "/traced_deliveries.tsv");
    for (int c = 0; c < 2; ++c) {
      for (const TracedRec& r : run.conns_[c].traced) {
        if (r.pub >= run.published_) continue;
        tr << r.trace_id << "\t" << r.pub << "\t" << run.send_ns_[r.pub]
           << "\t" << r.arrival_ns << "\t"
           << (r.pub >= open_first && r.pub < open_end ? 1 : 0) << "\n";
      }
    }
  }

  std::ofstream(arg("out")) << out.done() << "\n";
  return 0;
}
