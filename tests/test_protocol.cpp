// Tests for the wire protocol (envelope round-trips, sizes) and the cluster
// membership table (merge semantics, digests, bootstrap invariants).

#include <gtest/gtest.h>

#include "net/cluster_table.h"
#include "net/protocol.h"

namespace bluedove {
namespace {

Subscription sample_sub() {
  Subscription s;
  s.id = 7;
  s.subscriber = 8;
  s.ranges = {{0, 10}, {20, 30}, {40, 50}, {60, 70}};
  return s;
}

Message sample_msg() {
  Message m;
  m.id = 9;
  m.values = {1, 2, 3, 4};
  m.payload = "abc";
  return m;
}

MatcherState sample_state(NodeId id) {
  MatcherState s;
  s.id = id;
  s.generation = 3;
  s.version = 17;
  s.status = NodeStatus::kAlive;
  s.segments = {{0, 250}, {250, 500}, {500, 750}, {750, 1000}};
  return s;
}

// ---------------------------------------------------------------------------
// Envelope round-trips: one case per payload type
// ---------------------------------------------------------------------------

Envelope round_trip(const Envelope& env) {
  serde::Writer w;
  write_envelope(w, env);
  serde::Reader r(w.bytes());
  Envelope back = read_envelope(r);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(back.payload.index(), env.payload.index());
  return back;
}

TEST(Envelope, ClientSubscribeRoundTrip) {
  const auto back = round_trip(Envelope::of(ClientSubscribe{sample_sub()}));
  EXPECT_EQ(std::get<ClientSubscribe>(back.payload).sub.ranges,
            sample_sub().ranges);
}

TEST(Envelope, ClientUnsubscribeRoundTrip) {
  const auto back = round_trip(Envelope::of(ClientUnsubscribe{sample_sub()}));
  EXPECT_EQ(std::get<ClientUnsubscribe>(back.payload).sub.id, 7u);
}

TEST(Envelope, ClientPublishRoundTrip) {
  const auto back = round_trip(Envelope::of(ClientPublish{sample_msg()}));
  EXPECT_EQ(std::get<ClientPublish>(back.payload).msg.values,
            sample_msg().values);
}

TEST(Envelope, StoreSubscriptionRoundTrip) {
  const auto back =
      round_trip(Envelope::of(StoreSubscription{sample_sub(), 3}));
  EXPECT_EQ(std::get<StoreSubscription>(back.payload).dim, 3);
}

TEST(Envelope, StoreSubscriptionWideDimRoundTrip) {
  const auto back =
      round_trip(Envelope::of(StoreSubscription{sample_sub(), 0xffff}));
  EXPECT_EQ(std::get<StoreSubscription>(back.payload).dim, 0xffff);
}

TEST(Envelope, RemoveSubscriptionRoundTrip) {
  const auto back = round_trip(Envelope::of(RemoveSubscription{42, 2}));
  EXPECT_EQ(std::get<RemoveSubscription>(back.payload).id, 42u);
}

TEST(Envelope, MatchRequestRoundTrip) {
  const auto back =
      round_trip(Envelope::of(MatchRequest{sample_msg(), 1, 12.5}));
  const auto& req = std::get<MatchRequest>(back.payload);
  EXPECT_EQ(req.dim, 1);
  EXPECT_DOUBLE_EQ(req.dispatched_at, 12.5);
}

TEST(Envelope, DeliveryRoundTrip) {
  Delivery d;
  d.msg_id = 1;
  d.sub_id = 2;
  d.subscriber = 3;
  d.dispatched_at = 4.5;
  d.values = {9, 8, 7};
  d.payload = "x";
  const auto back = round_trip(Envelope::of(d));
  const auto& got = std::get<Delivery>(back.payload);
  EXPECT_EQ(got.values, d.values);
  EXPECT_EQ(got.payload, "x");
}

TEST(Envelope, MatchCompletedRoundTrip) {
  MatchCompleted m;
  m.msg_id = 5;
  m.matcher = 1001;
  m.dim = 2;
  m.dispatched_at = 7.0;
  m.match_count = 13;
  m.work_units = 321.5;
  const auto back = round_trip(Envelope::of(m));
  const auto& got = std::get<MatchCompleted>(back.payload);
  EXPECT_EQ(got.match_count, 13u);
  EXPECT_DOUBLE_EQ(got.work_units, 321.5);
}

TEST(Envelope, LoadReportRoundTrip) {
  LoadReport lr;
  lr.cores = 4;
  lr.utilization = 0.75;
  lr.measured_at = 99.0;
  lr.dims.push_back(DimLoad{3, 100, 90, 0.002, 1234, 5600.0});
  lr.dims.push_back(DimLoad{0, 10, 10, 0.0001, 5});
  const auto back = round_trip(Envelope::of(lr));
  const auto& got = std::get<LoadReport>(back.payload);
  ASSERT_EQ(got.dims.size(), 2u);
  EXPECT_DOUBLE_EQ(got.dims[0].queue_len, 3);
  EXPECT_EQ(got.dims[0].subscriptions, 1234u);
  EXPECT_DOUBLE_EQ(got.dims[0].work_rate, 5600.0);
  EXPECT_DOUBLE_EQ(got.dims[1].work_rate, 0.0);
  EXPECT_DOUBLE_EQ(got.utilization, 0.75);
  EXPECT_EQ(got.cores, 4u);
}

TEST(Envelope, GossipRoundTrips) {
  GossipSyn syn;
  syn.digests = {{1, 2, 3}, {4, 5, 6}};
  const auto syn_back = round_trip(Envelope::of(syn));
  EXPECT_EQ(std::get<GossipSyn>(syn_back.payload).digests.size(), 2u);

  GossipAck ack;
  ack.deltas = {sample_state(1)};
  ack.requests = {7, 8};
  const auto ack_back = round_trip(Envelope::of(ack));
  EXPECT_EQ(std::get<GossipAck>(ack_back.payload).requests,
            (std::vector<NodeId>{7, 8}));

  GossipAck2 ack2;
  ack2.deltas = {sample_state(2), sample_state(3)};
  const auto ack2_back = round_trip(Envelope::of(ack2));
  EXPECT_EQ(std::get<GossipAck2>(ack2_back.payload).deltas.size(), 2u);
}

TEST(Envelope, ControlAndElasticityRoundTrips) {
  round_trip(Envelope::of(TablePullReq{}));
  round_trip(Envelope::of(JoinRequest{}));
  round_trip(Envelope::of(LeaveRequest{}));

  TablePullResp resp;
  resp.table.merge(sample_state(9));
  const auto resp_back = round_trip(Envelope::of(resp));
  EXPECT_EQ(std::get<TablePullResp>(resp_back.payload).table.size(), 1u);

  const auto split = round_trip(Envelope::of(SplitCommand{55, 3}));
  EXPECT_EQ(std::get<SplitCommand>(split.payload).newcomer, 55u);

  HandoverSegment seg;
  seg.dim = 2;
  seg.newcomer_segment = {500, 750};
  seg.subs = {sample_sub()};
  const auto seg_back = round_trip(Envelope::of(seg));
  EXPECT_EQ(std::get<HandoverSegment>(seg_back.payload).subs.size(), 1u);

  HandoverMerge merge;
  merge.dim = 1;
  merge.merged_segment = {0, 500};
  merge.subs = {sample_sub(), sample_sub()};
  const auto merge_back = round_trip(Envelope::of(merge));
  EXPECT_EQ(std::get<HandoverMerge>(merge_back.payload).subs.size(), 2u);
}

TEST(Envelope, EdgeSessionRoundTrips) {
  EdgeHello hello;
  hello.session = 0x1234567890abcdefull;
  hello.last_seq = 987654321;
  const auto hello_back = round_trip(Envelope::of(hello));
  EXPECT_EQ(std::get<EdgeHello>(hello_back.payload).session, hello.session);
  EXPECT_EQ(std::get<EdgeHello>(hello_back.payload).last_seq, hello.last_seq);

  EdgeWelcome welcome;
  welcome.session = 42;
  welcome.next_seq = 7;
  welcome.resumed = true;
  const auto welcome_back = round_trip(Envelope::of(welcome));
  EXPECT_EQ(std::get<EdgeWelcome>(welcome_back.payload).session, 42u);
  EXPECT_EQ(std::get<EdgeWelcome>(welcome_back.payload).next_seq, 7u);
  EXPECT_TRUE(std::get<EdgeWelcome>(welcome_back.payload).resumed);

  const auto ack_back = round_trip(Envelope::of(EdgeAck{991}));
  EXPECT_EQ(std::get<EdgeAck>(ack_back.payload).seq, 991u);
}

TEST(Envelope, EdgeEventRoundTrip) {
  EdgeEvent ev;
  ev.seq = 12345;
  ev.delivery.msg_id = 9;
  ev.delivery.sub_id = 7;
  ev.delivery.subscriber = 8;
  ev.delivery.dispatched_at = 1.5;
  ev.delivery.values = {1, 2, 3};
  ev.delivery.payload = "edge-bytes";
  const auto back = round_trip(Envelope::of(ev));
  const auto& got = std::get<EdgeEvent>(back.payload);
  EXPECT_EQ(got.seq, 12345u);
  EXPECT_EQ(got.delivery.msg_id, 9u);
  EXPECT_EQ(got.delivery.sub_id, 7u);
  EXPECT_EQ(got.delivery.subscriber, 8u);
  EXPECT_EQ(got.delivery.values, ev.delivery.values);
  EXPECT_EQ(got.delivery.payload.view(), "edge-bytes");
}

TEST(Envelope, TracedMatchRequestRoundTrip) {
  MatchRequest req{sample_msg(), 2, 10.0};
  req.trace_id = 0xabcdef0123ull;
  req.parent_span = (77ull << 40) | 5;
  req.hops.enqueued_at = 10.25;
  req.hops.match_start = 10.5;
  req.hops.match_end = 10.75;
  const auto back = round_trip(Envelope::of(req));
  const auto& got = std::get<MatchRequest>(back.payload);
  EXPECT_EQ(got.trace_id, req.trace_id);
  EXPECT_EQ(got.parent_span, req.parent_span);
  EXPECT_DOUBLE_EQ(got.hops.enqueued_at, 10.25);
  EXPECT_DOUBLE_EQ(got.hops.match_start, 10.5);
  EXPECT_DOUBLE_EQ(got.hops.match_end, 10.75);

  // Untraced requests must not pay for the trace block on the wire:
  // trace_id 0 serializes as a single varint byte and the span context and
  // hops are omitted. A traced request pays the hop stamps plus one varint
  // byte for a zero parent span.
  MatchRequest plain{sample_msg(), 2, 10.0};
  MatchRequest traced = plain;
  traced.trace_id = 1;
  EXPECT_EQ(wire_size(Envelope::of(traced)),
            wire_size(Envelope::of(plain)) + 3 * sizeof(double) + 1);
}

TEST(Envelope, TracedMatchCompletedRoundTrip) {
  MatchCompleted m;
  m.msg_id = 5;
  m.matcher = 1001;
  m.trace_id = (1001ull << 40) | 7;
  m.parent_span = (10ull << 40) | 3;
  m.hops.enqueued_at = 1.0;
  m.hops.match_start = 2.0;
  m.hops.match_end = 3.0;
  const auto back = round_trip(Envelope::of(m));
  const auto& got = std::get<MatchCompleted>(back.payload);
  EXPECT_EQ(got.trace_id, m.trace_id);
  EXPECT_EQ(got.parent_span, m.parent_span);
  EXPECT_DOUBLE_EQ(got.hops.match_end, 3.0);
}

TEST(Envelope, TracedDeliveryRoundTrip) {
  Delivery d;
  d.msg_id = 9;
  d.trace_id = 77;
  const auto back = round_trip(Envelope::of(d));
  EXPECT_EQ(std::get<Delivery>(back.payload).trace_id, 77u);
}

TEST(Envelope, StatsRoundTrips) {
  round_trip(Envelope::of(StatsRequest{}));
  EXPECT_STREQ(payload_name(Envelope::of(StatsRequest{})), "StatsRequest");

  StatsResponse resp;
  resp.json = "{\"counters\":{\"matcher.requests\":42}}";
  const auto back = round_trip(Envelope::of(resp));
  EXPECT_EQ(std::get<StatsResponse>(back.payload).json, resp.json);
  EXPECT_STREQ(payload_name(back), "StatsResponse");
}

TEST(Envelope, TraceDumpRoundTrips) {
  round_trip(Envelope::of(TraceDumpRequest{}));
  EXPECT_STREQ(payload_name(Envelope::of(TraceDumpRequest{})),
               "TraceDumpRequest");

  TraceDumpResponse resp;
  resp.json = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}";
  const auto back = round_trip(Envelope::of(resp));
  EXPECT_EQ(std::get<TraceDumpResponse>(back.payload).json, resp.json);
  EXPECT_STREQ(payload_name(back), "TraceDumpResponse");
}

TEST(Envelope, WireSizeAndNames) {
  const Envelope env = Envelope::of(LoadReport{});
  EXPECT_GT(wire_size(env), 0u);
  EXPECT_STREQ(payload_name(env), "LoadReport");
  EXPECT_STREQ(payload_name(Envelope::of(GossipSyn{})), "GossipSyn");
}

// ---------------------------------------------------------------------------
// ClusterTable
// ---------------------------------------------------------------------------

TEST(ClusterTable, MergeKeepsNewerVersion) {
  ClusterTable t;
  MatcherState a = sample_state(1);
  EXPECT_TRUE(t.merge(a));
  EXPECT_FALSE(t.merge(a));  // same version: no change
  a.version += 1;
  a.status = NodeStatus::kDead;
  EXPECT_TRUE(t.merge(a));
  EXPECT_EQ(t.find(1)->status, NodeStatus::kDead);

  // Stale update loses.
  MatcherState stale = sample_state(1);
  stale.version = 2;
  stale.status = NodeStatus::kAlive;
  EXPECT_FALSE(t.merge(stale));
  EXPECT_EQ(t.find(1)->status, NodeStatus::kDead);
}

TEST(ClusterTable, GenerationTrumpsVersion) {
  ClusterTable t;
  MatcherState old_gen = sample_state(1);
  old_gen.generation = 1;
  old_gen.version = 1000;
  t.merge(old_gen);
  MatcherState new_gen = sample_state(1);
  new_gen.generation = 2;
  new_gen.version = 1;
  EXPECT_TRUE(t.merge(new_gen));
  EXPECT_EQ(t.find(1)->generation, 2u);
}

TEST(ClusterTable, MergeTableCountsUpdates) {
  ClusterTable a, b;
  a.merge(sample_state(1));
  b.merge(sample_state(1));  // identical: no update
  b.merge(sample_state(2));  // new entry
  MatcherState newer = sample_state(3);
  a.merge(sample_state(3));
  newer.version += 5;
  b.merge(newer);
  EXPECT_EQ(a.merge(b), 2u);  // entry 2 added, entry 3 upgraded
  EXPECT_EQ(a.size(), 3u);
}

TEST(ClusterTable, LiveMatchersExcludesNonAlive) {
  ClusterTable t;
  t.merge(sample_state(1));
  MatcherState dead = sample_state(2);
  dead.status = NodeStatus::kDead;
  t.merge(dead);
  MatcherState left = sample_state(3);
  left.status = NodeStatus::kLeft;
  t.merge(left);
  EXPECT_EQ(t.live_matchers(), (std::vector<NodeId>{1}));
}

TEST(ClusterTable, DigestsMatchEntries) {
  ClusterTable t;
  t.merge(sample_state(4));
  t.merge(sample_state(2));
  const auto digests = t.digests();
  ASSERT_EQ(digests.size(), 2u);
  EXPECT_EQ(digests[0].id, 2u);  // map order
  EXPECT_EQ(digests[1].id, 4u);
  EXPECT_EQ(digests[0].version, 17u);
}

TEST(ClusterTable, SerializationRoundTrip) {
  ClusterTable t;
  t.merge(sample_state(1));
  t.merge(sample_state(9));
  serde::Writer w;
  write_cluster_table(w, t);
  serde::Reader r(w.bytes());
  const ClusterTable back = read_cluster_table(r);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(back.size(), 2u);
  EXPECT_EQ(back.find(9)->segments, sample_state(9).segments);
}

TEST(BootstrapTable, SegmentsPartitionEachDimension) {
  const std::vector<NodeId> ids{10, 20, 30, 40, 50};
  const std::vector<Range> domains{{0, 1000}, {-500, 500}};
  const ClusterTable t = bootstrap_table(ids, domains);
  EXPECT_EQ(t.size(), 5u);
  for (std::size_t d = 0; d < domains.size(); ++d) {
    double cursor = domains[d].lo;
    for (NodeId id : ids) {  // ids ascending == segment order
      const Range seg = t.find(id)->segments[d];
      EXPECT_DOUBLE_EQ(seg.lo, cursor);
      cursor = seg.hi;
    }
    EXPECT_DOUBLE_EQ(cursor, domains[d].hi);
  }
}

TEST(BootstrapTable, SingleMatcherOwnsEverything) {
  const ClusterTable t = bootstrap_table({1}, {{0, 100}});
  EXPECT_EQ(t.find(1)->segments[0], (Range{0, 100}));
}

// Robustness: decoding any truncated prefix of a valid frame must neither
// crash nor allocate absurdly — it either parses (short messages embedded
// in the prefix) or flags the reader bad.
TEST(Envelope, TruncationSweepIsSafe) {
  std::vector<Envelope> samples;
  samples.push_back(Envelope::of(ClientSubscribe{sample_sub()}));
  samples.push_back(Envelope::of(MatchRequest{sample_msg(), 2, 1.5, 7}));
  LoadReport lr;
  lr.dims = {DimLoad{1, 2, 3, 4, 5}, DimLoad{6, 7, 8, 9, 10}};
  samples.push_back(Envelope::of(lr));
  GossipAck ack;
  ack.deltas = {sample_state(1), sample_state(2)};
  ack.requests = {3, 4, 5};
  samples.push_back(Envelope::of(ack));
  TablePullResp resp;
  resp.table.merge(sample_state(1));
  resp.table.merge(sample_state(2));
  samples.push_back(Envelope::of(resp));

  for (const Envelope& env : samples) {
    serde::Writer w;
    write_envelope(w, env);
    for (std::size_t cut = 0; cut < w.size(); ++cut) {
      serde::Reader r(w.bytes().data(), cut);
      const Envelope back = read_envelope(r);
      (void)back;
      if (cut < w.size()) {
        // Either flagged bad or decoded a shorter-but-valid prefix; both
        // are acceptable — what matters is no crash / no huge allocation.
        SUCCEED();
      }
    }
  }
}

// Bit-flip sweep: corrupt one byte at a time; decoding must stay safe.
TEST(Envelope, CorruptionSweepIsSafe) {
  serde::Writer w;
  GossipAck2 ack2;
  ack2.deltas = {sample_state(1), sample_state(9)};
  write_envelope(w, Envelope::of(ack2));
  for (std::size_t i = 0; i < w.size(); ++i) {
    std::vector<std::uint8_t> bytes = w.bytes();
    bytes[i] ^= 0xff;
    serde::Reader r(bytes);
    const Envelope back = read_envelope(r);
    (void)back;
  }
  SUCCEED();
}

TEST(NodeStatusNames, AllCovered) {
  EXPECT_STREQ(to_string(NodeStatus::kAlive), "alive");
  EXPECT_STREQ(to_string(NodeStatus::kLeaving), "leaving");
  EXPECT_STREQ(to_string(NodeStatus::kLeft), "left");
  EXPECT_STREQ(to_string(NodeStatus::kDead), "dead");
}

}  // namespace
}  // namespace bluedove
