#include "net/protocol.h"

namespace bluedove {

namespace {

// Per-type encode/decode. Type tags are the variant alternative index.

void write_payload(serde::Writer& w, const ClientSubscribe& m) {
  write_subscription(w, m.sub);
}
ClientSubscribe read_client_subscribe(serde::Reader& r) {
  return ClientSubscribe{read_subscription(r)};
}

void write_payload(serde::Writer& w, const ClientUnsubscribe& m) {
  write_subscription(w, m.sub);
}
ClientUnsubscribe read_client_unsubscribe(serde::Reader& r) {
  return ClientUnsubscribe{read_subscription(r)};
}

void write_payload(serde::Writer& w, const ClientPublish& m) {
  write_message(w, m.msg);
}
ClientPublish read_client_publish(serde::Reader& r) {
  return ClientPublish{read_message(r)};
}

void write_payload(serde::Writer& w, const StoreSubscription& m) {
  write_subscription(w, m.sub);
  w.u16(m.dim);
}
StoreSubscription read_store_subscription(serde::Reader& r) {
  StoreSubscription m;
  m.sub = read_subscription(r);
  m.dim = r.u16();
  return m;
}

void write_payload(serde::Writer& w, const RemoveSubscription& m) {
  w.u64(m.id);
  w.u16(m.dim);
}
RemoveSubscription read_remove_subscription(serde::Reader& r) {
  RemoveSubscription m;
  m.id = r.u64();
  m.dim = r.u16();
  return m;
}

void write_hops(serde::Writer& w, const obs::TraceHops& h) {
  w.f64(h.enqueued_at);
  w.f64(h.match_start);
  w.f64(h.match_end);
}
obs::TraceHops read_hops(serde::Reader& r) {
  obs::TraceHops h;
  h.enqueued_at = r.f64();
  h.match_start = r.f64();
  h.match_end = r.f64();
  return h;
}

void write_payload(serde::Writer& w, const MatchRequest& m) {
  write_message(w, m.msg);
  w.u16(m.dim);
  w.f64(m.dispatched_at);
  w.u32(m.reply_to);
  // Trace block: one varint 0 for the (default) untraced case. The causal
  // span context rides inside the block so untraced messages cost nothing.
  w.varint(m.trace_id);
  if (m.trace_id != 0) {
    w.varint(m.parent_span);
    write_hops(w, m.hops);
  }
}
MatchRequest read_match_request(serde::Reader& r) {
  MatchRequest m;
  m.msg = read_message(r);
  m.dim = r.u16();
  m.dispatched_at = r.f64();
  m.reply_to = r.u32();
  m.trace_id = r.varint();
  if (m.trace_id != 0) {
    m.parent_span = r.varint();
    m.hops = read_hops(r);
  }
  return m;
}

void write_payload(serde::Writer& w, const MatchAck& m) { w.u64(m.msg_id); }
MatchAck read_match_ack(serde::Reader& r) {
  MatchAck m;
  m.msg_id = r.u64();
  return m;
}

void write_payload(serde::Writer& w, const Delivery& m) {
  w.u64(m.msg_id);
  w.u64(m.sub_id);
  w.u64(m.subscriber);
  w.f64(m.dispatched_at);
  w.varint(m.values.size());
  for (Value v : m.values) w.f64(v);
  write_payload_ref(w, m.payload);
  w.varint(m.trace_id);
}
Delivery read_delivery(serde::Reader& r) {
  Delivery m;
  m.msg_id = r.u64();
  m.sub_id = r.u64();
  m.subscriber = r.u64();
  m.dispatched_at = r.f64();
  const auto n = r.varint();
  m.values.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) m.values.push_back(r.f64());
  m.payload = read_payload_ref(r);
  m.trace_id = r.varint();
  return m;
}

void write_payload(serde::Writer& w, const MatchCompleted& m) {
  w.u64(m.msg_id);
  w.u32(m.matcher);
  w.u16(m.dim);
  w.f64(m.dispatched_at);
  w.u32(m.match_count);
  w.f64(m.work_units);
  w.varint(m.trace_id);
  if (m.trace_id != 0) {
    w.varint(m.parent_span);
    write_hops(w, m.hops);
  }
}
MatchCompleted read_match_completed(serde::Reader& r) {
  MatchCompleted m;
  m.msg_id = r.u64();
  m.matcher = r.u32();
  m.dim = r.u16();
  m.dispatched_at = r.f64();
  m.match_count = r.u32();
  m.work_units = r.f64();
  m.trace_id = r.varint();
  if (m.trace_id != 0) {
    m.parent_span = r.varint();
    m.hops = read_hops(r);
  }
  return m;
}

void write_dim_load(serde::Writer& w, const DimLoad& d) {
  w.f64(d.queue_len);
  w.f64(d.arrival_rate);
  w.f64(d.matching_rate);
  w.f64(d.service_time);
  w.u64(d.subscriptions);
  w.f64(d.work_rate);
}
DimLoad read_dim_load(serde::Reader& r) {
  DimLoad d;
  d.queue_len = r.f64();
  d.arrival_rate = r.f64();
  d.matching_rate = r.f64();
  d.service_time = r.f64();
  d.subscriptions = r.u64();
  d.work_rate = r.f64();
  return d;
}

void write_payload(serde::Writer& w, const LoadReport& m) {
  w.varint(m.dims.size());
  for (const DimLoad& d : m.dims) write_dim_load(w, d);
  w.u32(m.cores);
  w.f64(m.utilization);
  w.f64(m.measured_at);
}
LoadReport read_load_report(serde::Reader& r) {
  LoadReport m;
  const auto n = r.varint();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i)
    m.dims.push_back(read_dim_load(r));
  m.cores = r.u32();
  m.utilization = r.f64();
  m.measured_at = r.f64();
  return m;
}

void write_payload(serde::Writer&, const TablePullReq&) {}
TablePullReq read_table_pull_req(serde::Reader&) { return {}; }

void write_payload(serde::Writer& w, const TablePullResp& m) {
  write_cluster_table(w, m.table);
}
TablePullResp read_table_pull_resp(serde::Reader& r) {
  return TablePullResp{read_cluster_table(r)};
}

void write_payload(serde::Writer& w, const GossipSyn& m) {
  w.varint(m.digests.size());
  for (const StateDigest& d : m.digests) write_digest(w, d);
}
GossipSyn read_gossip_syn(serde::Reader& r) {
  GossipSyn m;
  const auto n = r.varint();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i)
    m.digests.push_back(read_digest(r));
  return m;
}

void write_payload(serde::Writer& w, const GossipAck& m) {
  w.varint(m.deltas.size());
  for (const MatcherState& s : m.deltas) write_matcher_state(w, s);
  w.varint(m.requests.size());
  for (NodeId id : m.requests) w.u32(id);
}
GossipAck read_gossip_ack(serde::Reader& r) {
  GossipAck m;
  auto n = r.varint();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i)
    m.deltas.push_back(read_matcher_state(r));
  n = r.varint();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) m.requests.push_back(r.u32());
  return m;
}

void write_payload(serde::Writer& w, const GossipAck2& m) {
  w.varint(m.deltas.size());
  for (const MatcherState& s : m.deltas) write_matcher_state(w, s);
}
GossipAck2 read_gossip_ack2(serde::Reader& r) {
  GossipAck2 m;
  const auto n = r.varint();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i)
    m.deltas.push_back(read_matcher_state(r));
  return m;
}

void write_payload(serde::Writer&, const JoinRequest&) {}
JoinRequest read_join_request(serde::Reader&) { return {}; }

void write_payload(serde::Writer& w, const SplitCommand& m) {
  w.u32(m.newcomer);
  w.u16(m.dim);
}
SplitCommand read_split_command(serde::Reader& r) {
  SplitCommand m;
  m.newcomer = r.u32();
  m.dim = r.u16();
  return m;
}

void write_payload(serde::Writer& w, const HandoverSegment& m) {
  w.u16(m.dim);
  write_range(w, m.newcomer_segment);
  w.varint(m.subs.size());
  for (const Subscription& s : m.subs) write_subscription(w, s);
}
HandoverSegment read_handover_segment(serde::Reader& r) {
  HandoverSegment m;
  m.dim = r.u16();
  m.newcomer_segment = read_range(r);
  const auto n = r.varint();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i)
    m.subs.push_back(read_subscription(r));
  return m;
}

void write_payload(serde::Writer&, const LeaveRequest&) {}
LeaveRequest read_leave_request(serde::Reader&) { return {}; }

void write_payload(serde::Writer& w, const HandoverMerge& m) {
  w.u16(m.dim);
  write_range(w, m.merged_segment);
  w.varint(m.subs.size());
  for (const Subscription& s : m.subs) write_subscription(w, s);
}
HandoverMerge read_handover_merge(serde::Reader& r) {
  HandoverMerge m;
  m.dim = r.u16();
  m.merged_segment = read_range(r);
  const auto n = r.varint();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i)
    m.subs.push_back(read_subscription(r));
  return m;
}

void write_payload(serde::Writer&, const StatsRequest&) {}
StatsRequest read_stats_request(serde::Reader&) { return {}; }

void write_payload(serde::Writer& w, const StatsResponse& m) {
  w.str(m.json);
}
StatsResponse read_stats_response(serde::Reader& r) {
  return StatsResponse{r.str()};
}

void write_payload(serde::Writer&, const TraceDumpRequest&) {}
TraceDumpRequest read_trace_dump_request(serde::Reader&) { return {}; }

void write_payload(serde::Writer& w, const TraceDumpResponse& m) {
  w.str(m.json);
}
TraceDumpResponse read_trace_dump_response(serde::Reader& r) {
  return TraceDumpResponse{r.str()};
}

void write_payload(serde::Writer& w, const EdgeHello& m) {
  w.varint(m.session);
  w.varint(m.last_seq);
}
EdgeHello read_edge_hello(serde::Reader& r) {
  EdgeHello m;
  m.session = r.varint();
  m.last_seq = r.varint();
  return m;
}

void write_payload(serde::Writer& w, const EdgeWelcome& m) {
  w.varint(m.session);
  w.varint(m.next_seq);
  w.u8(m.resumed ? 1 : 0);
}
EdgeWelcome read_edge_welcome(serde::Reader& r) {
  EdgeWelcome m;
  m.session = r.varint();
  m.next_seq = r.varint();
  m.resumed = r.u8() != 0;
  return m;
}

void write_payload(serde::Writer& w, const EdgeAck& m) { w.varint(m.seq); }
EdgeAck read_edge_ack(serde::Reader& r) {
  EdgeAck m;
  m.seq = r.varint();
  return m;
}

void write_payload(serde::Writer& w, const EdgeEvent& m) {
  w.varint(m.seq);
  write_payload(w, m.delivery);
}
EdgeEvent read_edge_event(serde::Reader& r) {
  EdgeEvent m;
  m.seq = r.varint();
  m.delivery = read_delivery(r);
  return m;
}

}  // namespace

void write_envelope(serde::Writer& w, const Envelope& env) {
  w.u8(static_cast<std::uint8_t>(env.payload.index()));
  std::visit([&w](const auto& m) { write_payload(w, m); }, env.payload);
}

Envelope read_envelope(serde::Reader& r) {
  const auto tag = r.u8();
  switch (tag) {
    case 0:
      return Envelope::of(read_client_subscribe(r));
    case 1:
      return Envelope::of(read_client_unsubscribe(r));
    case 2:
      return Envelope::of(read_client_publish(r));
    case 3:
      return Envelope::of(read_store_subscription(r));
    case 4:
      return Envelope::of(read_remove_subscription(r));
    case 5:
      return Envelope::of(read_match_request(r));
    case 6:
      return Envelope::of(read_delivery(r));
    case 7:
      return Envelope::of(read_match_completed(r));
    case 8:
      return Envelope::of(read_load_report(r));
    case 9:
      return Envelope::of(read_table_pull_req(r));
    case 10:
      return Envelope::of(read_table_pull_resp(r));
    case 11:
      return Envelope::of(read_gossip_syn(r));
    case 12:
      return Envelope::of(read_gossip_ack(r));
    case 13:
      return Envelope::of(read_gossip_ack2(r));
    case 14:
      return Envelope::of(read_join_request(r));
    case 15:
      return Envelope::of(read_split_command(r));
    case 16:
      return Envelope::of(read_handover_segment(r));
    case 17:
      return Envelope::of(read_leave_request(r));
    case 18:
      return Envelope::of(read_handover_merge(r));
    case 19:
      return Envelope::of(read_match_ack(r));
    case 20:
      return Envelope::of(read_stats_request(r));
    case 21:
      return Envelope::of(read_stats_response(r));
    case 22:
      return Envelope::of(read_trace_dump_request(r));
    case 23:
      return Envelope::of(read_trace_dump_response(r));
    case 24:
      return Envelope::of(read_edge_hello(r));
    case 25:
      return Envelope::of(read_edge_welcome(r));
    case 26:
      return Envelope::of(read_edge_ack(r));
    case 27:
      return Envelope::of(read_edge_event(r));
    default:
      return Envelope::of(TablePullReq{});
  }
}

std::size_t wire_size(const Envelope& env) {
  serde::Writer w;
  write_envelope(w, env);
  return w.size();
}

const char* payload_name(const Envelope& env) {
  static constexpr const char* kNames[] = {
      "ClientSubscribe", "ClientUnsubscribe", "ClientPublish",
      "StoreSubscription", "RemoveSubscription", "MatchRequest", "Delivery",
      "MatchCompleted", "LoadReport", "TablePullReq", "TablePullResp",
      "GossipSyn", "GossipAck", "GossipAck2", "JoinRequest", "SplitCommand",
      "HandoverSegment", "LeaveRequest", "HandoverMerge", "MatchAck",
      "StatsRequest", "StatsResponse", "TraceDumpRequest",
      "TraceDumpResponse", "EdgeHello", "EdgeWelcome", "EdgeAck",
      "EdgeEvent"};
  return kNames[env.payload.index()];
}

}  // namespace bluedove
