// Tests for the wire path: multi-envelope framing (byte-exact round-trips
// against the legacy format), the one outbound frame builder
// (wire::FrameBuilder: a lone envelope is build_frame's bytes, frames split
// greedily at kMaxFrame), TcpHost's one outbound path (each node task's
// sends coalesced per peer, stale-connection retry, stop() against a peer
// that stops reading), the edge's use of the same builder (a burst of
// deliveries to one session, gap-free and in order), and a full
// dispatcher->matcher pipeline whose requests leave in coalesced frames.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <thread>

#include "common/thread_safety.h"
#include "edge/edge_client.h"
#include "edge/edge_frontend.h"
#include "net/tcp_transport.h"
#include "net/wire.h"
#include "node/dispatcher_node.h"
#include "node/matcher_node.h"

namespace bluedove {
namespace {

using net::TcpEndpoint;
using net::TcpHost;

bool eventually(const std::function<bool()>& pred, double seconds = 10.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

class CountingNode final : public Node {
 public:
  void start(NodeContext& ctx) override { ctx_.store(&ctx); }
  NodeContext* ctx() const { return ctx_.load(); }
  void on_receive(NodeId from, Envelope env) override {
    last_from.store(from);
    if (std::holds_alternative<ClientPublish>(env.payload)) {
      publishes.fetch_add(1);
    }
    total.fetch_add(1);
  }
  std::atomic<NodeContext*> ctx_{nullptr};
  std::atomic<NodeId> last_from{kInvalidNode};
  std::atomic<int> publishes{0};
  std::atomic<int> total{0};
};

NodeContext* wait_ctx(CountingNode* node) {
  eventually([&] { return node->ctx() != nullptr; });
  return node->ctx();
}

Envelope sample_publish(MessageId id) {
  Message msg;
  msg.id = id;
  msg.values = {1.5, 2.5, 3.5};
  msg.payload = "payload-" + std::to_string(id);
  return Envelope::of(ClientPublish{std::move(msg)});
}

Envelope traced_match_request(MessageId id) {
  MatchRequest req;
  req.msg = std::get<ClientPublish>(sample_publish(id).payload).msg;
  req.dim = 2;
  req.dispatched_at = 12.25;
  req.trace_id = 0xabcdef;
  req.hops.enqueued_at = 1.125;
  req.hops.match_start = 2.25;
  req.hops.match_end = 4.5;
  return Envelope::of(std::move(req));
}

std::vector<std::uint8_t> serialize(const Envelope& env) {
  serde::Writer w;
  write_envelope(w, env);
  return w.take();
}

/// One complete single-envelope frame carrying a publish.
std::vector<std::uint8_t> framed_publish(MessageId id, NodeId from) {
  serde::Writer w;
  net::wire::build_frame(w, from, sample_publish(id));
  return w.take();
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(WireFraming, SingleEnvelopeFrameMatchesLegacyBytesExactly) {
  const Envelope env = traced_match_request(42);
  // The legacy (pre-batching) frame: serialize the body, then prepend
  // length and sender in a second buffer.
  serde::Writer body;
  body.u32(7);  // sender
  write_envelope(body, env);
  serde::Writer legacy;
  legacy.u32(static_cast<std::uint32_t>(body.size()));
  for (const std::uint8_t b : body.bytes()) legacy.u8(b);

  serde::Writer framed;
  net::wire::build_frame(framed, 7, env);
  ASSERT_EQ(framed.size(), legacy.size());
  EXPECT_EQ(0, std::memcmp(framed.data(), legacy.data(), legacy.size()));
}

TEST(WireFraming, MultiEnvelopeFrameRoundTripsByteExactly) {
  // Assemble a 3-envelope frame the way TcpHost's flush does (one
  // FrameBuilder, closed once), then parse it back and compare each
  // envelope's serialization byte for byte (the traced request carries hop
  // timestamps, which must survive).
  const std::vector<Envelope> envs = {sample_publish(1),
                                      traced_match_request(2),
                                      sample_publish(3)};
  net::wire::FrameBuilder builder(9);
  std::uint32_t body_bytes = 0;
  for (const Envelope& e : envs) {
    body_bytes += static_cast<std::uint32_t>(serialize(e).size());
    EXPECT_EQ(builder.append(e).envelopes, 0u);
  }
  const net::wire::FrameStats stats = builder.close();
  EXPECT_EQ(stats.envelopes, envs.size());
  EXPECT_EQ(stats.bytes, builder.size());
  const std::uint8_t* frame = builder.data();

  const std::uint32_t len = net::wire::read_frame_len(frame);
  ASSERT_EQ(len, body_bytes + net::wire::kFrameOverhead);
  ASSERT_EQ(builder.size(), len + 4u);
  const net::wire::ParsedFrame parsed =
      net::wire::parse_frame(frame + 4, len);
  ASSERT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.from, 9u);
  ASSERT_EQ(parsed.envelopes.size(), envs.size());
  for (std::size_t i = 0; i < envs.size(); ++i) {
    EXPECT_EQ(serialize(parsed.envelopes[i]), serialize(envs[i]))
        << "envelope " << i;
  }
  const auto& req = std::get<MatchRequest>(parsed.envelopes[1].payload);
  EXPECT_EQ(req.trace_id, 0xabcdefu);
  EXPECT_DOUBLE_EQ(req.hops.enqueued_at, 1.125);
  EXPECT_DOUBLE_EQ(req.hops.match_start, 2.25);
  EXPECT_DOUBLE_EQ(req.hops.match_end, 4.5);
}

TEST(WireFraming, ParseRejectsTruncatedAndEmptyFrames) {
  const auto frame = framed_publish(5, 3);
  // Truncated mid-envelope: not ok.
  EXPECT_FALSE(net::wire::parse_frame(frame.data() + 4, frame.size() - 4 - 3)
                   .ok);
  // Sender only, zero envelopes: not ok.
  EXPECT_FALSE(net::wire::parse_frame(frame.data() + 4, 4).ok);
}

// ---------------------------------------------------------------------------
// The one outbound frame builder
// ---------------------------------------------------------------------------

TEST(WireFrameBuilder, LoneAppendIsExactlyBuildFrame) {
  const Envelope env = traced_match_request(42);
  serde::Writer expected;
  net::wire::build_frame(expected, 7, env);

  net::wire::FrameBuilder builder(7);
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(builder.append(env).envelopes, 0u);
    const net::wire::FrameStats stats = builder.close();
    EXPECT_EQ(stats.envelopes, 1u);
    EXPECT_EQ(stats.bytes, expected.size());
    ASSERT_EQ(builder.size(), expected.size());
    EXPECT_EQ(0, std::memcmp(builder.data(), expected.data(), expected.size()));
    // Closing again closes nothing.
    EXPECT_EQ(builder.close().envelopes, 0u);
    // Written bytes leave from the front; once all are gone the builder
    // starts over and the second round is byte-identical.
    builder.consume(5);
    EXPECT_EQ(builder.size(), expected.size() - 5);
    EXPECT_EQ(0, std::memcmp(builder.data(), expected.data() + 5,
                             expected.size() - 5));
    builder.consume(expected.size() - 5);
    EXPECT_TRUE(builder.empty());
  }
}

TEST(WireFrameBuilder, AppendsPastMaxFrameSplitGreedily) {
  // Three 22 MiB envelopes: the first two share a frame, the third would
  // take it past kMaxFrame and so starts the next one.
  constexpr int kEnvelopes = 3;
  Message msg;
  msg.id = 1;
  msg.values = {1.0};
  msg.payload = std::string(22u << 20, 'x');  // shared by every copy
  const Envelope env = Envelope::of(ClientPublish{msg});
  const std::size_t body = serialize(env).size();
  std::vector<std::uint32_t> want;
  std::vector<std::uint32_t> want_envs;
  for (int i = 0; i < kEnvelopes; ++i) {
    if (want.empty() || want.back() + body > net::wire::kMaxFrame) {
      want.push_back(static_cast<std::uint32_t>(net::wire::kFrameOverhead));
      want_envs.push_back(0);
    }
    want.back() += static_cast<std::uint32_t>(body);
    ++want_envs.back();
  }
  ASSERT_EQ(want.size(), 2u);

  net::wire::FrameBuilder builder(5);
  std::vector<net::wire::FrameStats> closed;
  for (int i = 0; i < kEnvelopes; ++i) {
    const net::wire::FrameStats split = builder.append(env);
    if (split.envelopes != 0) closed.push_back(split);
  }
  closed.push_back(builder.close());
  ASSERT_EQ(closed.size(), want.size());

  // Walk the headers: lengths, senders and envelope counts all match the
  // greedy packing, and every frame parses.
  const std::uint8_t* p = builder.data();
  std::size_t total = 0;
  for (std::size_t f = 0; f < want.size(); ++f) {
    const std::uint32_t len = net::wire::read_frame_len(p);
    EXPECT_EQ(len, want[f]) << "frame " << f;
    EXPECT_EQ(closed[f].envelopes, want_envs[f]) << "frame " << f;
    EXPECT_EQ(closed[f].bytes, len + 4u) << "frame " << f;
    const net::wire::ParsedFrame parsed =
        net::wire::parse_frame(p + 4, len, std::make_shared<int>(0));
    ASSERT_TRUE(parsed.ok) << "frame " << f;
    EXPECT_EQ(parsed.from, 5u);
    EXPECT_EQ(parsed.envelopes.size(), want_envs[f]);
    p += len + 4;
    total += len + 4;
  }
  EXPECT_EQ(total, builder.size());
}

TEST(WireFrameBuilder, EdgeBurstToOneSessionArrivesGapFreeInOrder) {
  // The edge closes a connection's frame at the end of each reactor wake,
  // with no per-frame envelope cap: a burst of deliveries to one session
  // must still arrive complete, sequenced and in order.
  constexpr int kDeliveries = 200;
  edge::EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  edge::EdgeFrontend fe(cfg, 10, [](Envelope&&) {});
  fe.start();

  bd::Mutex mu;
  std::vector<EdgeEvent> events;
  edge::EdgeClient client({"127.0.0.1", fe.port()}, [&](const EdgeEvent& ev) {
    bd::LockGuard lk(mu);
    events.push_back(ev);
  });
  ASSERT_TRUE(client.connect());
  for (int m = 1; m <= kDeliveries; ++m) {
    Delivery d;
    d.msg_id = static_cast<MessageId>(m);
    d.subscriber = client.session();
    d.values = {1, 2};
    d.payload = PayloadRef("burst-" + std::to_string(m));
    fe.deliver(d);
  }
  ASSERT_TRUE(client.wait_deliveries(kDeliveries, 10.0));
  {
    bd::LockGuard lk(mu);
    ASSERT_EQ(events.size(), static_cast<std::size_t>(kDeliveries));
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].seq, i + 1);
      EXPECT_EQ(events[i].delivery.msg_id, i + 1);
      EXPECT_EQ(events[i].delivery.payload.view(),
                "burst-" + std::to_string(i + 1));
    }
  }
  const auto snap = fe.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("edge.deliveries"),
            static_cast<std::uint64_t>(kDeliveries));
  EXPECT_LE(snap.counters.at("edge.frames_out"),
            static_cast<std::uint64_t>(kDeliveries + 1));
  client.disconnect();
  fe.stop();
}

// ---------------------------------------------------------------------------
// Zero-copy payload receive path
// ---------------------------------------------------------------------------


TEST(WireZeroCopy, OwnedFrameParsesPayloadsAsViewsIntoTheBuffer) {
  // Parse with a refcounted owner, the way TcpHost's reader loop does: the
  // payload must come back as a view into the frame buffer itself — no
  // copies counted, data pointer inside the buffer.
  const auto frame = framed_publish(11, 3);
  auto buf = std::make_shared<std::vector<std::uint8_t>>(frame.begin() + 4,
                                                         frame.end());
  const net::wire::ParsedFrame parsed =
      net::wire::parse_frame(buf->data(), buf->size(), buf);
  ASSERT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.payload_copies, 0u);
  EXPECT_EQ(parsed.payload_bytes_copied, 0u);
  ASSERT_EQ(parsed.envelopes.size(), 1u);
  const auto& msg = std::get<ClientPublish>(parsed.envelopes[0].payload).msg;
  EXPECT_EQ(msg.payload.view(), "payload-11");
  const char* lo = reinterpret_cast<const char*>(buf->data());
  EXPECT_GE(msg.payload.data(), lo);
  EXPECT_LT(msg.payload.data(), lo + buf->size());
}

TEST(WireZeroCopy, NoOwnerFallsBackToCountedCopies) {
  // Without an owner a view would dangle, so the parser copies and counts.
  const auto frame = framed_publish(12, 3);
  const net::wire::ParsedFrame parsed = net::wire::parse_frame(
      frame.data() + 4, frame.size() - 4);
  ASSERT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.payload_copies, 1u);
  EXPECT_EQ(parsed.payload_bytes_copied, std::string("payload-12").size());
  const auto& msg = std::get<ClientPublish>(parsed.envelopes[0].payload).msg;
  EXPECT_EQ(msg.payload.view(), "payload-12");
  const char* lo = reinterpret_cast<const char*>(frame.data());
  const bool inside = msg.payload.data() >= lo &&
                      msg.payload.data() < lo + frame.size();
  EXPECT_FALSE(inside) << "copy must not alias the frame buffer";
}

TEST(WireZeroCopy, PayloadViewKeepsFrameBufferAlive) {
  // The parsed message is the last reference to the frame buffer: dropping
  // the local shared_ptr must not invalidate the payload view.
  Message msg;
  {
    const auto frame = framed_publish(13, 3);
    auto buf = std::make_shared<std::vector<std::uint8_t>>(frame.begin() + 4,
                                                           frame.end());
    net::wire::ParsedFrame parsed =
        net::wire::parse_frame(buf->data(), buf->size(), buf);
    ASSERT_TRUE(parsed.ok);
    msg = std::get<ClientPublish>(parsed.envelopes[0].payload).msg;
    EXPECT_GT(buf.use_count(), 1) << "payload should hold a reference";
  }  // frame + buf gone; msg.payload's owner keeps the bytes alive
  EXPECT_EQ(msg.payload.view(), "payload-13");
}

TEST(WireZeroCopy, TcpReceivePathCountsZeroPayloadCopies) {
  // End to end over a real socket: every publish received through the
  // reader loop must keep its payload as a view into the per-frame buffer,
  // so the receiver's wire.payload_copies counter stays 0.
  constexpr int kMsgs = 400;
  auto recv_node = std::make_unique<CountingNode>();
  CountingNode* rn = recv_node.get();
  TcpHost receiver(2, 0, std::move(recv_node));
  receiver.start();

  auto send_node = std::make_unique<CountingNode>();
  CountingNode* sn = send_node.get();
  TcpHost sender(1, 0, std::move(send_node));
  sender.add_peer(2, {"127.0.0.1", receiver.port()});
  sender.start();
  NodeContext* ctx = wait_ctx(sn);

  // Sixteen publishes per node task: multi-envelope frames.
  for (int first = 0; first < kMsgs; first += 16) {
    sender.post([ctx, first] {
      for (int m = first; m < first + 16 && m < kMsgs; ++m) {
        ctx->send(2, sample_publish(static_cast<MessageId>(m)));
      }
    });
  }
  EXPECT_TRUE(eventually([&] { return rn->publishes.load() == kMsgs; }))
      << "got " << rn->publishes.load();
  const auto snap = receiver.wire_metrics().snapshot();
  EXPECT_EQ(snap.counters.at("wire.payload_copies"), 0u);
  EXPECT_EQ(snap.counters.at("wire.payload_bytes_copied"), 0u);
  sender.stop();
  receiver.stop();
}

// ---------------------------------------------------------------------------
// Outbound path over loopback
// ---------------------------------------------------------------------------

/// A bare loopback listener, for tests that need a peer speaking raw bytes
/// (capturing frames, or accepting and never reading).
class RawListener {
 public:
  RawListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    socklen_t len = sizeof addr;
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    ::listen(fd_, 8);
  }
  ~RawListener() { ::close(fd_); }
  RawListener(const RawListener&) = delete;
  RawListener& operator=(const RawListener&) = delete;

  std::uint16_t port() const { return port_; }

  /// Accepts one connection within 10 s (-1 on timeout). Reads on it time
  /// out after 10 s too, so a missing frame fails the test, not hangs it.
  int accept_one() const {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 10000) != 1) return -1;
    const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    timeval tv{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    return fd;
  }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

std::uint64_t counter(const TcpHost& host, const std::string& name) {
  return host.wire_metrics().snapshot().counters.at(name);
}

TEST(WireFlush, LoneSendIsExactlyOneBuildFrame) {
  RawListener peer;
  auto node = std::make_unique<CountingNode>();
  CountingNode* cn = node.get();
  TcpHost sender(7, 0, std::move(node));
  sender.add_peer(2, {"127.0.0.1", peer.port()});
  sender.start();
  NodeContext* ctx = wait_ctx(cn);

  const Envelope env = traced_match_request(42);
  sender.post([ctx, env] { ctx->send(2, env); });
  const int fd = peer.accept_one();
  ASSERT_GE(fd, 0);
  serde::Writer expected;
  net::wire::build_frame(expected, 7, env);
  std::vector<std::uint8_t> got(expected.size());
  ASSERT_TRUE(net::wire::read_all(fd, got.data(), got.size()));
  EXPECT_EQ(got, expected.bytes());
  // Nothing follows the one frame.
  std::uint8_t extra = 0;
  EXPECT_EQ(::recv(fd, &extra, 1, MSG_DONTWAIT), -1);
  sender.stop();  // joins the node thread: its counters are final
  EXPECT_EQ(counter(sender, "wire.frames_sent"), 1u);
  ::close(fd);
}

TEST(WireFlush, OneTaskIsOneFlushSplitAtMaxFrame) {
  // One node task sends N envelopes to one peer: they leave in one flush,
  // packed greedily into frames of at most kMaxFrame. The payloads are big
  // enough that the cap splits them.
  constexpr int kEnvelopes = 3;
  Message msg;
  msg.id = 1;
  msg.values = {1.0};
  msg.payload = std::string(22u << 20, 'x');  // shared by every copy
  const Envelope env = Envelope::of(ClientPublish{msg});
  serde::Writer body;
  net::wire::build_body(body, env);
  // Expected frame lengths (the length word counts sender + envelopes).
  std::vector<std::uint32_t> want;
  for (int i = 0; i < kEnvelopes; ++i) {
    if (want.empty() || want.back() + body.size() > net::wire::kMaxFrame) {
      want.push_back(static_cast<std::uint32_t>(net::wire::kFrameOverhead));
    }
    want.back() += static_cast<std::uint32_t>(body.size());
  }
  ASSERT_GT(want.size(), 1u) << "payloads too small to split";

  RawListener peer;
  auto node = std::make_unique<CountingNode>();
  CountingNode* cn = node.get();
  TcpHost sender(1, 0, std::move(node));
  sender.add_peer(2, {"127.0.0.1", peer.port()});
  sender.start();
  NodeContext* ctx = wait_ctx(cn);
  sender.post([ctx, env] {
    for (int i = 0; i < kEnvelopes; ++i) ctx->send(2, env);
  });

  const int fd = peer.accept_one();
  ASSERT_GE(fd, 0);
  std::vector<std::uint32_t> got;
  std::vector<std::uint8_t> chunk(1 << 16);
  for (std::size_t i = 0; i < want.size(); ++i) {
    std::uint8_t len_bytes[4];
    ASSERT_TRUE(net::wire::read_all(fd, len_bytes, 4));
    std::uint32_t left = net::wire::read_frame_len(len_bytes);
    got.push_back(left);
    while (left > 0) {
      const std::size_t n = std::min<std::size_t>(left, chunk.size());
      ASSERT_TRUE(net::wire::read_all(fd, chunk.data(), n));
      left -= static_cast<std::uint32_t>(n);
    }
  }
  EXPECT_EQ(got, want);
  sender.stop();  // joins the node thread: its counters are final
  EXPECT_EQ(counter(sender, "wire.envelopes_sent"), kEnvelopes);
  EXPECT_EQ(counter(sender, "wire.flushes"), 1u);
  EXPECT_EQ(counter(sender, "wire.frames_sent"), want.size());
  ::close(fd);
}

TEST(WireAsync, BatchedSendsAllDeliveredToManyPeers) {
  constexpr int kPeers = 5;
  constexpr int kPerPeer = 500;
  std::vector<std::unique_ptr<TcpHost>> receivers;
  std::vector<CountingNode*> nodes;
  for (int i = 0; i < kPeers; ++i) {
    auto node = std::make_unique<CountingNode>();
    nodes.push_back(node.get());
    receivers.push_back(std::make_unique<TcpHost>(
        static_cast<NodeId>(100 + i), 0, std::move(node)));
    receivers.back()->start();
  }

  auto sender_node = std::make_unique<CountingNode>();
  CountingNode* sn = sender_node.get();
  TcpHost sender(1, 0, std::move(sender_node));
  for (int i = 0; i < kPeers; ++i) {
    sender.add_peer(static_cast<NodeId>(100 + i),
                    {"127.0.0.1", receivers[static_cast<std::size_t>(i)]
                                      ->port()});
  }
  sender.start();
  NodeContext* ctx = wait_ctx(sn);

  // Sixteen rounds per node task: each task flushes one frame per peer.
  for (int first = 0; first < kPerPeer; first += 16) {
    sender.post([ctx, first] {
      for (int m = first; m < first + 16 && m < kPerPeer; ++m) {
        for (int i = 0; i < kPeers; ++i) {
          ctx->send(static_cast<NodeId>(100 + i),
                    sample_publish(static_cast<MessageId>(m)));
        }
      }
    });
  }
  for (int i = 0; i < kPeers; ++i) {
    EXPECT_TRUE(eventually([&] {
      return nodes[static_cast<std::size_t>(i)]->publishes.load() == kPerPeer;
    })) << "peer " << i << " got "
        << nodes[static_cast<std::size_t>(i)]->publishes.load();
    // The wire path carries the sender id on every frame.
    EXPECT_EQ(nodes[static_cast<std::size_t>(i)]->last_from.load(), 1u);
  }
  EXPECT_EQ(sender.dropped_sends(), 0u);
  const auto snap = sender.wire_metrics().snapshot();
  EXPECT_EQ(snap.counters.at("wire.envelopes_sent"),
            static_cast<std::uint64_t>(kPeers * kPerPeer));
  // Coalescing must actually happen: far fewer frames than envelopes.
  EXPECT_LT(snap.counters.at("wire.frames_sent"),
            snap.counters.at("wire.envelopes_sent"));
  for (std::unique_ptr<TcpHost>& r : receivers) r->stop();
  sender.stop();
}

/// Floods one peer with 16 KiB publishes from a self-rearming timer, so the
/// node thread keeps sending until the wire blocks. With no target it
/// floods the first peer that sends to it, over that peer's connection.
class FloodNode final : public Node {
 public:
  explicit FloodNode(NodeId target) : target_(target) {}
  void start(NodeContext& ctx) override {
    ctx_ = &ctx;
    if (target_ != kInvalidNode) flood();
  }
  void on_receive(NodeId from, Envelope) override {
    if (target_ != kInvalidNode) return;
    target_ = from;
    flood();
  }
  std::uint64_t rounds() const { return rounds_.load(); }

 private:
  void flood() {
    for (int i = 0; i < 16; ++i) {
      Message msg;
      msg.id = ++sent_;
      msg.values = {1.0};
      msg.payload = std::string(16 * 1024, 'x');
      ctx_->send(target_, Envelope::of(ClientPublish{std::move(msg)}));
    }
    rounds_.fetch_add(1);
    ctx_->set_timer(0.0, [this] { flood(); });
  }

  NodeContext* ctx_ = nullptr;
  NodeId target_;
  MessageId sent_ = 0;
  std::atomic<std::uint64_t> rounds_{0};
};

/// Waits until the flood stalls (the node thread is blocked in a write),
/// then requires stop() to return within a deadline. On a miss it runs
/// `unblock` (which resets the peer's sockets) so the test fails instead of
/// hanging.
void expect_stop_returns(TcpHost& host, const FloodNode& node,
                         const std::function<void()>& unblock) {
  EXPECT_TRUE(eventually([&] {
    const std::uint64_t before = node.rounds();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return before > 0 && node.rounds() == before;
  })) << "the peer never pushed back";
  auto stopped = std::async(std::launch::async, [&] { host.stop(); });
  if (stopped.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    ADD_FAILURE() << "stop() hung on a write to a peer that stopped reading";
    unblock();
  }
  stopped.get();
  // The blocked flush failed and was counted.
  EXPECT_GT(host.dropped_sends(), 0u);
  EXPECT_GT(counter(host, "wire.send_error_drops"), 0u);
}

/// Closes `fd` with an RST, so the far end's blocked write fails at once.
void reset_close(int fd) {
  const linger hard{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof hard);
  ::close(fd);
}

TEST(WireStop, StopReturnsWhileDialledPeerStopsReading) {
  RawListener peer;
  TcpHost sender(1, 0, std::make_unique<FloodNode>(2));
  sender.add_peer(2, {"127.0.0.1", peer.port()});
  sender.start();
  const int fd = peer.accept_one();  // accepted, never read
  ASSERT_GE(fd, 0);
  std::atomic<bool> closed{false};
  expect_stop_returns(sender, *sender.node_as<FloodNode>(), [&] {
    reset_close(fd);
    closed.store(true);
  });
  if (!closed.load()) ::close(fd);
}

TEST(WireStop, StopReturnsWhileLearnedPeerStopsReading) {
  // The peer has no registered endpoint: it dials in, says hello, and the
  // node floods it back over that inbound connection (the learned return
  // path), which the peer never reads.
  TcpHost sender(1, 0, std::make_unique<FloodNode>(kInvalidNode));
  sender.start();
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(sender.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_TRUE(net::wire::send_frame(fd, 77, Envelope::of(JoinRequest{})));
  std::atomic<bool> closed{false};
  expect_stop_returns(sender, *sender.node_as<FloodNode>(), [&] {
    reset_close(fd);
    closed.store(true);
  });
  if (!closed.load()) ::close(fd);
}

TEST(WireSync, StaleConnectionRetryAfterPeerRestart) {
  auto first_node = std::make_unique<CountingNode>();
  CountingNode* first = first_node.get();
  auto receiver = std::make_unique<TcpHost>(2, 0, std::move(first_node));
  receiver->start();
  const std::uint16_t port = receiver->port();

  auto sender_node = std::make_unique<CountingNode>();
  CountingNode* sn = sender_node.get();
  TcpHost sender(1, 0, std::move(sender_node));
  sender.add_peer(2, {"127.0.0.1", port});
  sender.start();
  NodeContext* ctx = wait_ctx(sn);

  sender.post([ctx] { ctx->send(2, sample_publish(1)); });
  ASSERT_TRUE(eventually([&] { return first->publishes.load() == 1; }));

  // Restart the peer on the same port: the sender's cached connection is
  // now stale. TCP lets the first write into a half-closed connection
  // succeed (the kernel buffers it before the RST comes back), so that
  // probe send may be silently lost; once the reset is observed, the
  // in-call retry must dial fresh and delivery must resume without the
  // sender ever being restarted or re-peered.
  receiver->stop();
  receiver.reset();
  auto second_node = std::make_unique<CountingNode>();
  CountingNode* second = second_node.get();
  TcpHost restarted(2, port, std::move(second_node));
  ASSERT_EQ(restarted.port(), port);
  restarted.start();

  std::uint64_t next_id = 2;
  EXPECT_TRUE(eventually([&] {
    const auto id = static_cast<MessageId>(next_id++);
    sender.post([ctx, id] { ctx->send(2, sample_publish(id)); });
    return second->publishes.load() >= 1;
  }));
  restarted.stop();
  sender.stop();
}

// ---------------------------------------------------------------------------
// End-to-end: a dispatcher task's MatchRequests leave in coalesced frames
// ---------------------------------------------------------------------------

TEST(WireCluster, PublishBurstInOneTaskFlowsToMatchersInCoalescedFrames) {
  constexpr NodeId kSink = 2;
  constexpr NodeId kDispatcher = 10;
  const std::vector<NodeId> matcher_ids{1000, 1001};
  const std::vector<Range> domains(2, Range{0, 1000});

  std::atomic<int> completions{0};
  TcpHost sink(kSink, 0,
               std::make_unique<FunctionNode>(
                   [&](NodeId, const Envelope& env, Timestamp) {
                     if (std::holds_alternative<MatchCompleted>(env.payload)) {
                       completions.fetch_add(1);
                     }
                   }));

  DispatcherConfig dcfg;
  dcfg.domains = domains;
  dcfg.table_pull_interval = 0.5;
  TcpHost dispatcher_host(
      kDispatcher, 0,
      [&] {
        auto node = std::make_unique<DispatcherNode>(kDispatcher, dcfg);
        node->set_bootstrap(bootstrap_table(matcher_ids, domains));
        return node;
      }());

  MatcherConfig mcfg;
  mcfg.domains = domains;
  mcfg.cores = 1;
  mcfg.index_kind = IndexKind::kBucket;
  mcfg.match_batch = 8;
  mcfg.load_report_interval = 0.2;
  mcfg.gossip.round_interval = 0.2;
  mcfg.dispatchers = {kDispatcher};
  mcfg.metrics_sink = kSink;
  mcfg.delivery_sink = kSink;
  std::vector<std::unique_ptr<TcpHost>> matcher_hosts;
  for (NodeId id : matcher_ids) {
    auto node = std::make_unique<MatcherNode>(id, mcfg);
    node->set_bootstrap(bootstrap_table(matcher_ids, domains));
    matcher_hosts.push_back(
        std::make_unique<TcpHost>(id, 0, std::move(node)));
  }

  std::map<NodeId, TcpEndpoint> directory;
  directory[kSink] = {"127.0.0.1", sink.port()};
  directory[kDispatcher] = {"127.0.0.1", dispatcher_host.port()};
  for (std::size_t i = 0; i < matcher_ids.size(); ++i) {
    directory[matcher_ids[i]] = {"127.0.0.1", matcher_hosts[i]->port()};
  }
  auto wire_up = [&](TcpHost& host) {
    for (const auto& [id, ep] : directory) {
      if (id != host.id()) host.add_peer(id, ep);
    }
  };
  wire_up(sink);
  wire_up(dispatcher_host);
  for (auto& h : matcher_hosts) wire_up(*h);

  sink.start();
  dispatcher_host.start();
  for (auto& h : matcher_hosts) h->start();

  // Publish a burst in one dispatcher task: its MatchRequests to each
  // matcher leave in one flush, as multi-envelope frames, and every
  // message must still complete matching.
  constexpr int kMessages = 200;
  ASSERT_TRUE(dispatcher_host.post([node = dispatcher_host.node()] {
    for (int i = 0; i < kMessages; ++i) {
      Message msg;
      msg.id = static_cast<MessageId>(i + 1);
      msg.values = {500.0, 500.0};
      node->on_receive(kInvalidNode, Envelope::of(ClientPublish{msg}));
    }
  }));
  EXPECT_TRUE(eventually([&] { return completions.load() == kMessages; }))
      << "completions=" << completions.load();

  // The dispatcher's wire coalesced them (not 200 singleton frames).
  const auto wsnap = dispatcher_host.wire_metrics().snapshot();
  EXPECT_GT(wsnap.counters.at("wire.envelopes_sent"),
            wsnap.counters.at("wire.frames_sent"));

  for (auto& h : matcher_hosts) h->stop();
  dispatcher_host.stop();
  sink.stop();
}

}  // namespace
}  // namespace bluedove
