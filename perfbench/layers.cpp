// perfbench_layers — times the index, serde and partition layers through
// their public functions, on the same seeded inputs the traffic generator
// sends (workload.h), in one process with no cluster running. The traced
// benchmark run reports these next to the cluster's own counters.
//
//   perfbench_layers --workload=W --seed=N --index=KIND --spans=FILE
//
// Prints one JSON object of per-layer metrics on stdout and writes one
// Chrome-trace span per layer call to --spans.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/partition_strategy.h"
#include "core/segment_view.h"
#include "index/subscription_index.h"
#include "net/cluster_table.h"
#include "net/protocol.h"
#include "net/wire.h"
#include "workload.h"

using namespace bluedove;
namespace pb = perfbench;

namespace {

constexpr std::size_t kProbeMessages = 4000;
constexpr int kSerdeReps = 200000;
constexpr int kCloneReps = 5;
constexpr std::size_t kVerifyMessages = 500;  // brute-force checked

using Clock = std::chrono::steady_clock;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Chrome-trace "X" events, one per timed layer call.
class Spans {
 public:
  void add(const std::string& name, Clock::time_point a, Clock::time_point b) {
    const auto us = [](Clock::time_point t) {
      return std::chrono::duration_cast<std::chrono::microseconds>(
                 t.time_since_epoch())
          .count();
    };
    if (!body_.empty()) body_ += ",\n";
    body_ += "{\"name\":\"" + name + "\",\"ph\":\"X\",\"pid\":2,\"tid\":1," +
             "\"ts\":" + std::to_string(us(a)) +
             ",\"dur\":" + std::to_string(us(b) - us(a)) + "}";
  }
  void write(const std::string& path) const {
    std::ofstream(path) << "{\"traceEvents\":[" << body_ << "]}\n";
  }

 private:
  std::string body_;
};

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    if (a.rfind("--", 0) == 0 && eq != std::string::npos) {
      args[a.substr(2, eq - 2)] = a.substr(eq + 1);
    }
  }
  const pb::Workload w = pb::workload_by_name(args["workload"]);
  const std::uint64_t seed = std::stoull(args.count("seed") ? args["seed"] : "1");
  const std::string kind_name = args.count("index") ? args["index"] : "bucket";
  IndexKind kind = IndexKind::kBucket;
  bool known = false;
  for (IndexKind k : {IndexKind::kLinearScan, IndexKind::kBucket,
                      IndexKind::kIntervalTree, IndexKind::kFlatBucket}) {
    if (kind_name == to_string(k)) {
      kind = k;
      known = true;
    }
  }
  if (!known) {
    std::fprintf(stderr, "perfbench_layers: unknown index kind '%s'\n",
                 kind_name.c_str());
    return 2;
  }

  const pb::Inputs in = pb::make_inputs(w, seed, kProbeMessages);
  const std::vector<Range> domains(pb::kDims, Range{0.0, pb::kDomain});
  const std::vector<NodeId> matchers = {1000, 1001};
  const SegmentView view =
      SegmentView::build(bootstrap_table(matchers, domains), pb::kDims);
  const MPartition partition;
  Spans spans;

  // partition: where every subscription's copies go.
  const std::vector<Subscription>& subs = in.subs;
  std::vector<std::vector<Assignment>> placed(subs.size());
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < subs.size(); ++i) {
    placed[i] = partition.assign(view, subs[i]);
  }
  auto t1 = Clock::now();
  spans.add("partition.assign", t0, t1);
  const double assign_us = secs(t0, t1) * 1e6 / static_cast<double>(subs.size());

  // index: one engine per (matcher, dim) set, as the matchers hold them.
  std::map<std::pair<NodeId, DimId>, std::unique_ptr<SubscriptionIndex>> sets;
  for (NodeId m : matchers) {
    for (int d = 0; d < pb::kDims; ++d) {
      sets[{m, static_cast<DimId>(d)}] =
          make_index(kind, static_cast<DimId>(d), domains[d]);
    }
  }
  t0 = Clock::now();
  for (std::size_t i = 0; i < subs.size(); ++i) {
    auto sub = std::make_shared<const Subscription>(subs[i]);
    for (const Assignment& a : placed[i]) sets[{a.matcher, a.dim}]->insert(sub);
  }
  t1 = Clock::now();
  spans.add("index.build", t0, t1);
  const double build_s = secs(t0, t1);

  const SubscriptionIndex* largest = nullptr;
  for (const auto& [key, idx] : sets) {
    if (largest == nullptr || idx->size() > largest->size()) largest = idx.get();
  }
  std::vector<double> clone_ms;
  for (int r = 0; r < kCloneReps; ++r) {
    t0 = Clock::now();
    std::unique_ptr<SubscriptionIndex> snap = largest->clone();
    t1 = Clock::now();
    spans.add("index.clone", t0, t1);
    clone_ms.push_back(secs(t0, t1) * 1e3);
  }
  std::sort(clone_ms.begin(), clone_ms.end());

  // Probe each message on one of its candidate (matcher, dim) sets, one
  // message per call as deployed (match batch 1), and verify the hit count
  // against a brute-force scan.
  std::vector<Message> msgs(in.msgs.size());
  for (std::size_t m = 0; m < msgs.size(); ++m) {
    msgs[m].id = m + 1;
    msgs[m].values.assign(in.msgs.at(m), in.msgs.at(m) + pb::kDims);
  }
  std::vector<const SubscriptionIndex*> target(msgs.size());
  for (std::size_t m = 0; m < msgs.size(); ++m) {
    const std::vector<Assignment> cands = partition.candidates(view, msgs[m]);
    const Assignment& a = cands[m % cands.size()];
    target[m] = sets[{a.matcher, a.dim}].get();
  }
  MatchScratch scratch;
  WorkCounter wc;
  std::vector<MatchHit> hits;
  std::vector<std::uint32_t> offsets;
  std::vector<std::size_t> hit_count(msgs.size());
  t0 = Clock::now();
  for (std::size_t m = 0; m < msgs.size(); ++m) {
    hits.clear();
    offsets.clear();
    target[m]->match_batch(std::span<const Message>(&msgs[m], 1), hits,
                           offsets, wc, nullptr, &scratch);
    hit_count[m] = hits.size();
  }
  t1 = Clock::now();
  spans.add("index.match_batch", t0, t1);
  const double probe_us = secs(t0, t1) * 1e6 / static_cast<double>(msgs.size());
  std::size_t total_hits = 0;
  for (std::size_t c : hit_count) total_hits += c;
  std::size_t probe_errors = 0;
  for (std::size_t m = 0; m < kVerifyMessages && m < msgs.size(); ++m) {
    std::size_t want = 0;
    for (std::size_t i = 0; i < in.boxes.size(); ++i) {
      want += in.boxes.contains(i, in.msgs.at(m)) ? 1 : 0;
    }
    probe_errors += want != hit_count[m] ? 1 : 0;
  }

  // serde: one edge delivery event carrying the workload's payload, encoded
  // as the edge fan-out does and parsed as the client does.
  EdgeEvent ev;
  ev.seq = 1;
  ev.delivery.msg_id = 1;
  ev.delivery.sub_id = 1;
  ev.delivery.subscriber = 1;
  ev.delivery.values = msgs[0].values;
  ev.delivery.payload = PayloadRef(std::string(w.payload, 'x'));
  const Envelope env = Envelope::of(ev);
  serde::Writer wr;
  std::size_t bytes = 0;
  t0 = Clock::now();
  for (int r = 0; r < kSerdeReps; ++r) {
    net::wire::build_body(wr, env);
    bytes += wr.size();
  }
  t1 = Clock::now();
  spans.add("serde.encode", t0, t1);
  const double encode_ns = secs(t0, t1) * 1e9 / kSerdeReps;
  auto owner = std::make_shared<std::vector<std::uint8_t>>(
      wr.data(), wr.data() + wr.size());
  std::size_t parsed_ok = 0;
  t0 = Clock::now();
  for (int r = 0; r < kSerdeReps; ++r) {
    serde::Reader rd(owner->data(), owner->size());
    rd.set_owner(std::shared_ptr<const void>(owner, owner.get()));
    const Envelope back = read_envelope(rd);
    parsed_ok += (rd.ok() && std::holds_alternative<EdgeEvent>(back.payload))
                     ? 1
                     : 0;
  }
  t1 = Clock::now();
  spans.add("serde.parse", t0, t1);
  const double parse_ns = secs(t0, t1) * 1e9 / kSerdeReps;

  spans.write(args.count("spans") ? args["spans"] : "spans_layers.json");
  const double n = static_cast<double>(msgs.size());
  std::printf(
      "{\"index.kind\":\"%s\",\"index.build_s\":%.9g,\"index.clone_ms\":%.9g,"
      "\"index.probe_us_per_msg\":%.9g,\"index.candidates_per_msg\":%.9g,"
      "\"index.hits_per_msg\":%.9g,\"index.probe_errors\":%zu,"
      "\"serde.encode_ns_per_delivery\":%.9g,"
      "\"serde.parse_ns_per_delivery\":%.9g,\"serde.bytes_per_delivery\":%.9g,"
      "\"partition.assign_us_per_sub\":%.9g,\"layers.ok\":%d}\n",
      kind_name.c_str(), build_s, clone_ms[clone_ms.size() / 2], probe_us,
      static_cast<double>(wc.comparisons) / n,
      static_cast<double>(total_hits) / n, probe_errors, encode_ns, parse_ns,
      static_cast<double>(bytes) / kSerdeReps, assign_us,
      (probe_errors == 0 && parsed_ok == kSerdeReps) ? 1 : 0);
  return probe_errors == 0 && parsed_ok == kSerdeReps ? 0 : 1;
}
