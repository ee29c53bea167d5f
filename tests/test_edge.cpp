// Tests for the client edge layer (src/edge/): reactor front end lifecycle,
// the EdgeHello/EdgeWelcome handshake, id rewriting into the cluster,
// sequence-numbered delivery with acks and gap-free resume, the bounded
// replay ring, slow-client eviction, detached-session reaping, the
// SIGPIPE/peer-close-mid-send regression, and a full edge -> dispatcher ->
// matcher -> edge round trip over real loopback sockets with the zero-copy
// payload invariant checked end to end.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "common/thread_safety.h"
#include "edge/edge_client.h"
#include "edge/edge_dial.h"
#include "edge/edge_frontend.h"
#include "edge/edge_swarm.h"
#include "net/cluster_table.h"
#include "net/tcp_client.h"
#include "net/tcp_transport.h"
#include "net/wire.h"
#include "node/dispatcher_node.h"
#include "node/matcher_node.h"

namespace bluedove {
namespace {

using edge::EdgeClient;
using edge::EdgeConfig;
using edge::EdgeFrontend;
using net::TcpEndpoint;
using net::TcpHost;

bool eventually(const std::function<bool()>& pred, double seconds = 10.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

std::uint64_t counter(const EdgeFrontend& fe, const std::string& name) {
  const auto snap = fe.metrics().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// Thread-safe capture of everything the edge injects into the "cluster".
struct IngressCapture {
  bd::Mutex mu;
  std::vector<Envelope> envs BD_GUARDED_BY(mu);

  EdgeFrontend::IngressFn fn() {
    return [this](Envelope&& e) {
      bd::LockGuard lk(mu);
      envs.push_back(std::move(e));
    };
  }
  template <typename T>
  std::vector<T> all() {
    bd::LockGuard lk(mu);
    std::vector<T> out;
    for (const Envelope& env : envs) {
      if (const T* m = std::get_if<T>(&env.payload)) out.push_back(*m);
    }
    return out;
  }
  template <typename T>
  std::size_t count() {
    return all<T>().size();
  }
};

Delivery make_delivery(std::uint64_t session, std::uint64_t sub_gid,
                       MessageId msg_id, std::string payload = "p") {
  Delivery d;
  d.msg_id = msg_id;
  d.sub_id = sub_gid;
  d.subscriber = session;
  d.values = {1, 2};
  d.payload = PayloadRef(std::move(payload));
  return d;
}

// ---------------------------------------------------------------------------
// Handshake and ingress rewriting
// ---------------------------------------------------------------------------

TEST(EdgeFrontendTest, HandshakeCreatesSessionAndRewritesIds) {
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  EdgeFrontend fe(cfg, 10, ingress.fn());
  ASSERT_GT(fe.port(), 0);
  fe.start();

  EdgeClient client({"127.0.0.1", fe.port()});
  ASSERT_TRUE(client.connect());
  EXPECT_NE(client.session(), 0u);
  EXPECT_FALSE(client.welcome_resumed());
  EXPECT_TRUE(eventually([&] { return fe.sessions() == 1; }));
  EXPECT_TRUE(eventually([&] { return fe.connections() == 1; }));

  const SubscriptionId client_sub = client.subscribe({Range{0, 100}});
  ASSERT_NE(client_sub, 0u);
  ASSERT_TRUE(eventually([&] { return ingress.count<ClientSubscribe>() == 1; }));
  const ClientSubscribe sub = ingress.all<ClientSubscribe>()[0];
  // The edge rewrites the client-chosen id to an edge-global one (tagged so
  // it cannot collide with direct TcpClient ids) and stamps the session id
  // as the subscriber — that is how deliveries find their way back.
  EXPECT_NE(sub.sub.id, client_sub);
  EXPECT_NE(sub.sub.id & (1ull << 62), 0u);
  EXPECT_EQ(sub.sub.subscriber, client.session());
  EXPECT_EQ(sub.sub.ranges.size(), 1u);

  EXPECT_NE(client.publish({5, 6}, "payload"), 0u);
  ASSERT_TRUE(eventually([&] { return ingress.count<ClientPublish>() == 1; }));
  const ClientPublish pub = ingress.all<ClientPublish>()[0];
  EXPECT_NE(pub.msg.id & (1ull << 62), 0u);
  EXPECT_EQ(pub.msg.payload.view(), "payload");

  // Unsubscribe maps the client id back to the same global id.
  EXPECT_TRUE(client.unsubscribe(client_sub));
  ASSERT_TRUE(
      eventually([&] { return ingress.count<ClientUnsubscribe>() == 1; }));
  EXPECT_EQ(ingress.all<ClientUnsubscribe>()[0].sub.id, sub.sub.id);

  client.disconnect();
  EXPECT_TRUE(eventually([&] { return fe.connections() == 0; }));
  fe.stop();
}

TEST(EdgeFrontendTest, TwoSessionsGetDistinctIds) {
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();
  EdgeClient a({"127.0.0.1", fe.port()});
  EdgeClient b({"127.0.0.1", fe.port()});
  ASSERT_TRUE(a.connect());
  ASSERT_TRUE(b.connect());
  EXPECT_NE(a.session(), 0u);
  EXPECT_NE(b.session(), 0u);
  EXPECT_NE(a.session(), b.session());
  fe.stop();
}

TEST(EdgeFrontendTest, ConnectionCapRejectsExtras) {
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.max_connections = 1;
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();
  EdgeClient a({"127.0.0.1", fe.port()});
  ASSERT_TRUE(a.connect());
  ASSERT_TRUE(eventually([&] { return fe.connections() == 1; }));
  EdgeClient b({"127.0.0.1", fe.port()});
  EXPECT_FALSE(b.connect());  // accepted then immediately closed
  EXPECT_TRUE(eventually([&] { return counter(fe, "edge.accept_rejects") >= 1; }));
  fe.stop();
}

// ---------------------------------------------------------------------------
// Delivery sequencing, acks, resume
// ---------------------------------------------------------------------------

TEST(EdgeFrontendTest, DeliveriesAreSequencedAndSubIdsMappedBack) {
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();

  bd::Mutex mu;
  std::vector<EdgeEvent> events;
  EdgeClient client({"127.0.0.1", fe.port()}, [&](const EdgeEvent& ev) {
    bd::LockGuard lk(mu);
    events.push_back(ev);
  });
  ASSERT_TRUE(client.connect());
  const SubscriptionId client_sub = client.subscribe({Range{0, 100}});
  ASSERT_TRUE(eventually([&] { return ingress.count<ClientSubscribe>() == 1; }));
  const std::uint64_t gid = ingress.all<ClientSubscribe>()[0].sub.id;

  for (MessageId m = 1; m <= 3; ++m) {
    fe.deliver(make_delivery(client.session(), gid, m, "payload" + std::to_string(m)));
  }
  ASSERT_TRUE(client.wait_deliveries(3, 10.0));
  bd::LockGuard lk(mu);
  ASSERT_EQ(events.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(events[i].seq, i + 1);
    EXPECT_EQ(events[i].delivery.msg_id, i + 1);
    // Deliveries carry the client's own subscription id, not the global one.
    EXPECT_EQ(events[i].delivery.sub_id, client_sub);
    EXPECT_EQ(events[i].delivery.payload.view(),
              "payload" + std::to_string(i + 1));
  }
  fe.stop();
}

TEST(EdgeFrontendTest, ResumeReplaysDetachedDeliveriesGapFree) {
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();

  bd::Mutex mu;
  std::vector<std::uint64_t> seqs;
  // ack_every high: nothing auto-acked, resume relies on hello.last_seq.
  EdgeClient client(
      {"127.0.0.1", fe.port()},
      [&](const EdgeEvent& ev) {
        bd::LockGuard lk(mu);
        seqs.push_back(ev.seq);
      },
      /*ack_every=*/1000000);
  ASSERT_TRUE(client.connect());
  const std::uint64_t session = client.session();
  ASSERT_TRUE(eventually([&] { return fe.sessions() == 1; }));

  for (MessageId m = 1; m <= 5; ++m) fe.deliver(make_delivery(session, 0, m));
  ASSERT_TRUE(client.wait_deliveries(5, 10.0));

  // Drop the connection, keep delivering into the detached session.
  client.disconnect();
  ASSERT_TRUE(eventually([&] { return fe.connections() == 0; }));
  for (MessageId m = 6; m <= 10; ++m) fe.deliver(make_delivery(session, 0, m));
  ASSERT_TRUE(eventually([&] { return counter(fe, "edge.deliveries") == 10; }));

  ASSERT_TRUE(client.resume());
  EXPECT_TRUE(client.welcome_resumed());
  EXPECT_EQ(client.session(), session);
  // hello.last_seq = 5, so the server replays exactly 6..10: no gap, no dup.
  EXPECT_EQ(client.welcome_next_seq(), 6u);
  ASSERT_TRUE(client.wait_deliveries(10, 10.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    bd::LockGuard lk(mu);
    ASSERT_EQ(seqs.size(), 10u);
    for (std::size_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i + 1);
  }
  EXPECT_EQ(counter(fe, "edge.sessions_resumed"), 1u);
  EXPECT_EQ(counter(fe, "edge.replay_gaps"), 0u);
  fe.stop();
}

TEST(EdgeFrontendTest, AcksTrimTheReplayRing) {
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();

  EdgeClient client({"127.0.0.1", fe.port()}, nullptr, /*ack_every=*/1);
  ASSERT_TRUE(client.connect());
  const std::uint64_t session = client.session();
  for (MessageId m = 1; m <= 5; ++m) fe.deliver(make_delivery(session, 0, m));
  ASSERT_TRUE(client.wait_deliveries(5, 10.0));
  ASSERT_TRUE(eventually([&] { return counter(fe, "edge.acks") >= 5; }));

  // Everything acked: a resume has nothing to replay.
  client.disconnect();
  ASSERT_TRUE(eventually([&] { return fe.connections() == 0; }));
  ASSERT_TRUE(client.resume());
  EXPECT_TRUE(client.welcome_resumed());
  EXPECT_EQ(client.welcome_next_seq(), 6u);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(client.deliveries(), 5u);
  EXPECT_EQ(counter(fe, "edge.replay_hits"), 0u);
  fe.stop();
}

TEST(EdgeFrontendTest, RingOverflowSurfacesAsResumeGap) {
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.replay_entries = 4;
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();

  EdgeClient client({"127.0.0.1", fe.port()}, nullptr, /*ack_every=*/1000000);
  ASSERT_TRUE(client.connect());
  const std::uint64_t session = client.session();
  client.disconnect();
  ASSERT_TRUE(eventually([&] { return fe.connections() == 0; }));

  // 10 deliveries into a 4-deep ring: 1..6 fall off the end.
  for (MessageId m = 1; m <= 10; ++m) fe.deliver(make_delivery(session, 0, m));
  ASSERT_TRUE(eventually([&] { return counter(fe, "edge.replay_overflow") == 6; }));

  ASSERT_TRUE(client.resume());
  EXPECT_TRUE(client.welcome_resumed());
  // The client expected 1 next; the server can only replay from 7 — the
  // welcome reports the horizon so the client knows 6 messages are gone.
  EXPECT_EQ(client.welcome_next_seq(), 7u);
  ASSERT_TRUE(client.wait_deliveries(4, 10.0));
  EXPECT_EQ(counter(fe, "edge.replay_gaps"), 6u);
  fe.stop();
}

TEST(EdgeFrontendTest, OversizedReplayFlushesInsteadOfEvicting) {
  // Regression: the slow-client bound used to be applied before any flush
  // attempt, so a replay (or one delivery batch) larger than
  // write_queue_bytes evicted even a fast client before a single byte was
  // sent — and every resume replayed the same ring and evicted again, so
  // the session livelocked. The bound now applies to post-flush residue.
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.write_queue_bytes = 4 * 1024;  // far below the replayed volume
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();

  bd::Mutex mu;
  std::vector<std::uint64_t> seqs;
  EdgeClient client(
      {"127.0.0.1", fe.port()},
      [&](const EdgeEvent& ev) {
        bd::LockGuard lk(mu);
        seqs.push_back(ev.seq);
      },
      /*ack_every=*/1);
  ASSERT_TRUE(client.connect());
  const std::uint64_t session = client.session();
  client.disconnect();
  ASSERT_TRUE(eventually([&] { return fe.connections() == 0; }));

  // 16 x 4 KiB piles ~64 KiB into the replay ring; one resume replays all
  // of it, an order of magnitude over the write-queue bound.
  const std::string big(4 * 1024, 'z');
  for (MessageId m = 1; m <= 16; ++m) {
    fe.deliver(make_delivery(session, 0, m, big));
  }
  ASSERT_TRUE(eventually([&] { return counter(fe, "edge.deliveries") == 16; }));

  ASSERT_TRUE(client.resume());
  EXPECT_TRUE(client.welcome_resumed());
  ASSERT_TRUE(client.wait_deliveries(16, 10.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    bd::LockGuard lk(mu);
    ASSERT_EQ(seqs.size(), 16u);
    for (std::size_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i + 1);
  }
  EXPECT_EQ(counter(fe, "edge.evictions"), 0u);
  EXPECT_EQ(counter(fe, "edge.replay_gaps"), 0u);
  fe.stop();
}

TEST(EdgeFrontendTest, ReusedClientSubIdWithdrawsThePreviousSubscription) {
  // Regression: a client reusing a subscription id used to strand the old
  // global mapping — the stale cluster subscription kept matching
  // (duplicate deliveries under the same client-visible id) until session
  // drop. The edge now withdraws the old mapping before installing the new.
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();

  const int fd = edge::dial({"127.0.0.1", fe.port()});
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(net::wire::send_frame(fd, kInvalidNode,
                                    Envelope::of(EdgeHello{})));
  auto send_sub = [&](std::uint64_t id, double lo, double hi) {
    Subscription sub;
    sub.id = id;
    sub.ranges = {Range{lo, hi}};
    ASSERT_TRUE(net::wire::send_frame(
        fd, kInvalidNode, Envelope::of(ClientSubscribe{std::move(sub)})));
  };

  send_sub(7, 0, 100);
  ASSERT_TRUE(eventually([&] { return ingress.count<ClientSubscribe>() == 1; }));
  const std::uint64_t gid1 = ingress.all<ClientSubscribe>()[0].sub.id;

  send_sub(7, 200, 300);
  ASSERT_TRUE(eventually([&] { return ingress.count<ClientSubscribe>() == 2; }));
  ASSERT_TRUE(
      eventually([&] { return ingress.count<ClientUnsubscribe>() == 1; }));
  EXPECT_EQ(ingress.all<ClientUnsubscribe>()[0].sub.id, gid1);
  const std::uint64_t gid2 = ingress.all<ClientSubscribe>()[1].sub.id;
  EXPECT_NE(gid2, gid1);

  // A client unsubscribe of the reused id maps to the replacement only.
  Subscription unsub;
  unsub.id = 7;
  ASSERT_TRUE(net::wire::send_frame(
      fd, kInvalidNode, Envelope::of(ClientUnsubscribe{std::move(unsub)})));
  ASSERT_TRUE(
      eventually([&] { return ingress.count<ClientUnsubscribe>() == 2; }));
  EXPECT_EQ(ingress.all<ClientUnsubscribe>()[1].sub.id, gid2);
  ::close(fd);
  fe.stop();
}

TEST(EdgeFrontendTest, OversizedClientFrameHeaderIsMalformed) {
  // A header claiming a 64 MiB frame used to be accepted (anything up to
  // wire::kMaxFrame), zero-filling the whole buffer before a body byte
  // arrived. Client frames are small single envelopes, so the edge now
  // refuses such a header outright and closes the connection.
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();

  const int fd = edge::dial({"127.0.0.1", fe.port()});
  ASSERT_GE(fd, 0);
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ASSERT_TRUE(net::wire::send_frame(fd, kInvalidNode,
                                    Envelope::of(EdgeHello{})));
  std::uint8_t lenbuf[4];
  ASSERT_TRUE(net::wire::read_all(fd, lenbuf, 4));
  std::vector<std::uint8_t> welcome(net::wire::read_frame_len(lenbuf));
  ASSERT_TRUE(net::wire::read_all(fd, welcome.data(), welcome.size()));
  ASSERT_TRUE(eventually([&] { return fe.connections() == 1; }));

  const std::uint32_t claim = net::wire::kMaxFrame;
  ASSERT_TRUE(net::wire::write_all(fd, &claim, sizeof claim));
  EXPECT_TRUE(eventually([&] { return counter(fe, "edge.malformed") == 1; }));
  EXPECT_TRUE(eventually([&] { return fe.connections() == 0; }));
  std::uint8_t byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0) << "connection should be closed";
  // The session is detached, not destroyed.
  EXPECT_EQ(fe.sessions(), 1u);
  ::close(fd);
  fe.stop();
}

// ---------------------------------------------------------------------------
// Backpressure / teardown
// ---------------------------------------------------------------------------

TEST(EdgeFrontendTest, SlowClientIsEvictedAndSessionSurvives) {
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.write_queue_bytes = 16 * 1024;
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();

  // Raw socket that completes the handshake and then never reads again.
  const int fd = edge::dial({"127.0.0.1", fe.port()});
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(net::wire::send_frame(fd, kInvalidNode,
                                    Envelope::of(EdgeHello{})));
  std::uint8_t lenbuf[4];
  ASSERT_TRUE(net::wire::read_all(fd, lenbuf, 4));
  const std::uint32_t len = net::wire::read_frame_len(lenbuf);
  std::vector<std::uint8_t> body(len);
  ASSERT_TRUE(net::wire::read_all(fd, body.data(), len));
  net::wire::ParsedFrame frame =
      net::wire::parse_frame(body.data(), len, nullptr);
  ASSERT_TRUE(frame.ok);
  ASSERT_FALSE(frame.envelopes.empty());
  const auto* welcome = std::get_if<EdgeWelcome>(&frame.envelopes[0].payload);
  ASSERT_NE(welcome, nullptr);
  const std::uint64_t session = welcome->session;

  // Fan out large payloads the client never drains: once the kernel socket
  // buffer is full, unsent bytes pile up in the bounded write queue until
  // the eviction bound trips.
  const std::string big(32 * 1024, 'x');
  for (int m = 1; m <= 200 && counter(fe, "edge.evictions") == 0; ++m) {
    fe.deliver(make_delivery(session, 0, static_cast<MessageId>(m), big));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(eventually([&] { return counter(fe, "edge.evictions") >= 1; }));
  // The session is detached, not destroyed: still resumable.
  EXPECT_EQ(fe.sessions(), 1u);
  ::close(fd);
  fe.stop();
}

TEST(EdgeFrontendTest, PeerCloseMidSendDoesNotKillTheProcess) {
  // Regression for the classic SIGPIPE death: the peer hard-closes while
  // the reactor still has queued bytes for it. MSG_NOSIGNAL turns that into
  // EPIPE and a clean disconnect.
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();

  const int fd = edge::dial({"127.0.0.1", fe.port()});
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(net::wire::send_frame(fd, kInvalidNode,
                                    Envelope::of(EdgeHello{})));
  std::uint8_t lenbuf[4];
  ASSERT_TRUE(net::wire::read_all(fd, lenbuf, 4));
  const std::uint32_t len = net::wire::read_frame_len(lenbuf);
  std::vector<std::uint8_t> body(len);
  ASSERT_TRUE(net::wire::read_all(fd, body.data(), len));
  net::wire::ParsedFrame frame =
      net::wire::parse_frame(body.data(), len, nullptr);
  ASSERT_TRUE(frame.ok);
  const auto* welcome = std::get_if<EdgeWelcome>(&frame.envelopes[0].payload);
  ASSERT_NE(welcome, nullptr);
  const std::uint64_t session = welcome->session;

  // Close with a reset (non-graceful) while the server keeps writing.
  struct linger lg{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
  ::close(fd);
  const std::string payload(8 * 1024, 'y');
  for (int m = 1; m <= 50; ++m) {
    fe.deliver(make_delivery(session, 0, static_cast<MessageId>(m), payload));
  }
  EXPECT_TRUE(eventually([&] { return fe.connections() == 0; }));
  // Still alive and serving: a fresh client works.
  EdgeClient probe({"127.0.0.1", fe.port()});
  EXPECT_TRUE(probe.connect());
  fe.stop();
}

TEST(EdgeFrontendTest, ReapedSessionWithdrawsItsSubscriptions) {
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.session_timeout = 0.3;
  cfg.reap_interval = 0.1;
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();

  EdgeClient client({"127.0.0.1", fe.port()});
  ASSERT_TRUE(client.connect());
  const std::uint64_t session = client.session();
  ASSERT_NE(client.subscribe({Range{0, 50}}), 0u);
  ASSERT_TRUE(eventually([&] { return ingress.count<ClientSubscribe>() == 1; }));
  const std::uint64_t gid = ingress.all<ClientSubscribe>()[0].sub.id;

  client.disconnect();
  ASSERT_TRUE(eventually([&] { return fe.sessions() == 0; }, 15.0));
  EXPECT_EQ(counter(fe, "edge.sessions_reaped"), 1u);
  // The cluster got a ClientUnsubscribe for the reaped session's planting.
  ASSERT_TRUE(
      eventually([&] { return ingress.count<ClientUnsubscribe>() == 1; }));
  EXPECT_EQ(ingress.all<ClientUnsubscribe>()[0].sub.id, gid);

  // Resuming a reaped session yields a fresh one, honestly labelled.
  ASSERT_TRUE(client.resume());
  EXPECT_FALSE(client.welcome_resumed());
  EXPECT_NE(client.session(), session);
  fe.stop();
}

// ---------------------------------------------------------------------------
// Swarm harness sanity (small scale; bench/micro_edge is the big one)
// ---------------------------------------------------------------------------

TEST(EdgeSwarmTest, OpenDropResumeRoundTrip) {
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();

  edge::SwarmConfig scfg;
  scfg.endpoint = {"127.0.0.1", fe.port()};
  scfg.drivers = 2;
  edge::Swarm swarm(scfg);
  ASSERT_EQ(swarm.open(20), 20);
  EXPECT_EQ(swarm.live(), 20u);
  EXPECT_TRUE(eventually([&] { return fe.sessions() == 20; }));

  EXPECT_EQ(swarm.drop(5), 5);
  EXPECT_EQ(swarm.live(), 15u);
  EXPECT_TRUE(eventually([&] { return fe.connections() == 15; }));
  EXPECT_EQ(fe.sessions(), 20u);  // dropped sessions stay resumable

  EXPECT_EQ(swarm.resume(5), 5);
  EXPECT_EQ(swarm.live(), 20u);
  EXPECT_EQ(swarm.sessions_lost(), 0u);
  EXPECT_EQ(swarm.gaps(), 0u);
  fe.stop();
}

// ---------------------------------------------------------------------------
// Full cluster round trip: EdgeClient -> EdgeFrontend -> DispatcherNode ->
// MatcherNode -> DispatcherNode (delivery sink) -> EdgeFrontend -> client.
// ---------------------------------------------------------------------------

TEST(EdgeClusterTest, EndToEndPubSubWithZeroPayloadCopies) {
  constexpr NodeId kDispatcher = 10;
  const std::vector<NodeId> matcher_ids{1000, 1001};
  const std::vector<Range> domains(2, Range{0, 1000});

  DispatcherConfig dcfg;
  dcfg.domains = domains;
  dcfg.table_pull_interval = 0.5;
  auto dnode = std::make_unique<DispatcherNode>(kDispatcher, dcfg);
  dnode->set_bootstrap(bootstrap_table(matcher_ids, domains));
  TcpHost dispatcher_host(kDispatcher, 0, std::move(dnode));
  auto* dispatcher = dispatcher_host.node_as<DispatcherNode>();

  EdgeConfig ecfg;
  ecfg.host = "127.0.0.1";
  EdgeFrontend fe(ecfg, kDispatcher, [&](Envelope&& env) {
    dispatcher_host.inject(kInvalidNode, std::move(env));
  });
  dispatcher->on_delivery = [&](const Delivery& d) { fe.deliver(d); };
  dispatcher->add_stats_registry(&fe.metrics());

  MatcherConfig mcfg;
  mcfg.domains = domains;
  mcfg.cores = 1;
  mcfg.index_kind = IndexKind::kBucket;
  mcfg.load_report_interval = 0.2;
  mcfg.gossip.round_interval = 0.2;
  mcfg.dispatchers = {kDispatcher};
  mcfg.metrics_sink = kDispatcher;
  mcfg.delivery_sink = kDispatcher;
  std::vector<std::unique_ptr<TcpHost>> matcher_hosts;
  for (NodeId id : matcher_ids) {
    auto node = std::make_unique<MatcherNode>(id, mcfg);
    node->set_bootstrap(bootstrap_table(matcher_ids, domains));
    matcher_hosts.push_back(std::make_unique<TcpHost>(id, 0, std::move(node)));
  }
  std::map<NodeId, TcpEndpoint> directory;
  directory[kDispatcher] = {"127.0.0.1", dispatcher_host.port()};
  for (std::size_t i = 0; i < matcher_ids.size(); ++i) {
    directory[matcher_ids[i]] = {"127.0.0.1", matcher_hosts[i]->port()};
  }
  for (auto& host : matcher_hosts) {
    for (const auto& [id, ep] : directory) {
      if (id != host->id()) host->add_peer(id, ep);
    }
  }
  for (const auto& [id, ep] : directory) {
    if (id != kDispatcher) dispatcher_host.add_peer(id, ep);
  }
  dispatcher_host.start();
  for (auto& host : matcher_hosts) host->start();
  fe.start();

  bd::Mutex mu;
  std::vector<EdgeEvent> events;
  EdgeClient client({"127.0.0.1", fe.port()}, [&](const EdgeEvent& ev) {
    bd::LockGuard lk(mu);
    events.push_back(ev);
  });
  ASSERT_TRUE(client.connect());
  const SubscriptionId sub = client.subscribe({Range{0, 500}, Range{0, 1000}});
  ASSERT_NE(sub, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  ASSERT_NE(client.publish({100, 100}, "edge-payload"), 0u);
  ASSERT_NE(client.publish({700, 100}, "miss"), 0u);
  ASSERT_TRUE(client.wait_deliveries(1, 10.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  {
    bd::LockGuard lk(mu);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].seq, 1u);
    EXPECT_EQ(events[0].delivery.sub_id, sub);
    EXPECT_EQ(events[0].delivery.payload.view(), "edge-payload");
  }

  // Zero-copy invariant across the whole path: client frame -> dispatcher
  // (injected views) -> matcher (wire views) -> delivery fan-out -> edge
  // write queue. No host anywhere copied a payload.
  const auto dsnap = dispatcher_host.wire_metrics().snapshot();
  EXPECT_EQ(dsnap.counters.at("wire.payload_copies"), 0u);
  for (auto& host : matcher_hosts) {
    const auto msnap = host->wire_metrics().snapshot();
    EXPECT_EQ(msnap.counters.at("wire.payload_copies"), 0u);
  }

  // The edge registry rides along in the dispatcher's stats export.
  Envelope resp;
  ASSERT_TRUE(TcpHost::request_reply(directory[kDispatcher], 777,
                                     Envelope::of(StatsRequest{}), &resp));
  const auto* stats = std::get_if<StatsResponse>(&resp.payload);
  ASSERT_NE(stats, nullptr);
  EXPECT_NE(stats->json.find("edge.accepts"), std::string::npos);
  EXPECT_NE(stats->json.find("edge.deliveries"), std::string::npos);

  client.disconnect();
  fe.stop();
  for (auto& host : matcher_hosts) host->stop();
  dispatcher_host.stop();
}

// ---------------------------------------------------------------------------
// TcpClient behaviour across a server restart (satellite: reconnect/retry)
// ---------------------------------------------------------------------------

TEST(EdgeSatelliteTest, TcpClientRecoversAfterServerRestart) {
  constexpr NodeId kDispatcher = 10;
  const std::vector<Range> domains(2, Range{0, 1000});
  DispatcherConfig dcfg;
  dcfg.domains = domains;

  auto make_host = [&](std::uint16_t port) {
    auto node = std::make_unique<DispatcherNode>(kDispatcher, dcfg);
    node->set_bootstrap(bootstrap_table({}, domains));
    return std::make_unique<TcpHost>(kDispatcher, port, std::move(node));
  };
  auto host = make_host(0);
  const std::uint16_t port = host->port();
  host->start();

  net::TcpClient client(3, 0, TcpEndpoint{"127.0.0.1", port});
  EXPECT_NE(client.publish({1, 2}, "up"), 0u);

  // Server gone: every operation fails cleanly (no crash, no hang)...
  host->stop();
  host.reset();
  EXPECT_EQ(client.publish({1, 2}, "down"), 0u);

  // ...and recovers as soon as a server returns on the same port (each
  // client operation dials fresh, so no stale-connection state lingers).
  host = make_host(port);
  ASSERT_EQ(host->port(), port);
  host->start();
  EXPECT_TRUE(eventually([&] { return client.publish({1, 2}, "back") != 0; }));
  host->stop();
}

TEST(EdgeSatelliteTest, RaiseFdLimitReportsEffectiveSoftLimit) {
  const std::size_t got = net::raise_fd_limit(1u << 20);
  EXPECT_GT(got, 0u);
  // Idempotent and monotone: asking again for less cannot lower it.
  EXPECT_EQ(net::raise_fd_limit(16), got);
}

}  // namespace
}  // namespace bluedove
