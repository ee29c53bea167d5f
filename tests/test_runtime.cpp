// Tests for the real-time node event loop (runtime::NodeLoop). The
// LoopContract suite runs each loop-level test on both hosts that use
// the loop, ThreadCluster and net::TcpHost; the ThreadCluster suite pins
// what only the in-process cluster does (routing between its own nodes,
// drop counting, the shared clock). The Service facade exercises the
// cluster end-to-end.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <thread>

#include "net/tcp_transport.h"
#include "runtime/thread_cluster.h"

namespace bluedove {
namespace {

bool eventually(const std::function<bool()>& pred, double seconds = 5.0) {
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

class ProbeNode final : public Node {
 public:
  void start(NodeContext& ctx) override {
    ctx_ = &ctx;
    started.store(true);
  }
  void on_receive(NodeId from, Envelope env) override {
    last_from.store(from);
    received.fetch_add(1);
    if (forward_to != kInvalidNode) {
      ctx_->send(forward_to, std::move(env));
    }
  }
  void stop() override { stopped.fetch_add(1); }

  NodeContext* ctx_ = nullptr;
  NodeId forward_to = kInvalidNode;
  std::atomic<bool> started{false};
  std::atomic<int> stopped{0};
  std::atomic<int> received{0};
  std::atomic<NodeId> last_from{kInvalidNode};
};

// ---------------------------------------------------------------------------
// The loop contract, on both hosts
// ---------------------------------------------------------------------------

enum class HostKind { kThreadCluster, kTcpHost };

std::string host_name(HostKind kind) {
  return kind == HostKind::kThreadCluster ? "ThreadCluster" : "TcpHost";
}

void PrintTo(HostKind kind, std::ostream* os) { *os << host_name(kind); }

/// A set of nodes on one kind of host, behind the calls the contract tests
/// make. On TcpHost every node gets its own host on an ephemeral loopback
/// port, and start_all() makes every host a peer of every other.
class Hosts {
 public:
  explicit Hosts(HostKind kind) : kind_(kind) {}
  ~Hosts() { shutdown(); }

  void add(NodeId id, std::unique_ptr<Node> node) {
    if (kind_ == HostKind::kThreadCluster) {
      cluster_.add_node(id, std::move(node));
    } else {
      tcp_[id] = std::make_unique<net::TcpHost>(id, 0, std::move(node));
    }
  }
  void start_all() {
    if (kind_ == HostKind::kThreadCluster) {
      cluster_.start_all();
      return;
    }
    for (auto& [id, host] : tcp_) {
      for (auto& [peer, other] : tcp_) {
        if (peer != id) {
          host->add_peer(peer, net::TcpEndpoint{"127.0.0.1", other->port()});
        }
      }
    }
    for (auto& [id, host] : tcp_) host->start();
  }
  bool running(NodeId id) const {
    return kind_ == HostKind::kThreadCluster ? cluster_.running(id)
                                             : tcp_.at(id)->running();
  }
  void inject(NodeId to, Envelope env) {
    if (kind_ == HostKind::kThreadCluster) {
      cluster_.inject(to, std::move(env));
    } else {
      tcp_.at(to)->inject(kInvalidNode, std::move(env));
    }
  }
  void stop(NodeId id) {
    if (kind_ == HostKind::kThreadCluster) {
      cluster_.stop(id);
    } else {
      tcp_.at(id)->stop();
    }
  }
  void shutdown() {
    cluster_.shutdown();
    for (auto& [id, host] : tcp_) host->stop();
  }

 private:
  HostKind kind_;
  runtime::ThreadCluster cluster_;
  std::map<NodeId, std::unique_ptr<net::TcpHost>> tcp_;
};

class LoopContract : public ::testing::TestWithParam<HostKind> {
 protected:
  /// Adds a ProbeNode under `id` and returns it (the host owns it).
  ProbeNode* add_probe(NodeId id) {
    auto node = std::make_unique<ProbeNode>();
    ProbeNode* probe = node.get();
    hosts_.add(id, std::move(node));
    return probe;
  }

  Hosts hosts_{GetParam()};
};

TEST_P(LoopContract, StartDeliversAndStops) {
  ProbeNode* probe = add_probe(1);
  EXPECT_FALSE(hosts_.running(1));
  hosts_.start_all();
  EXPECT_TRUE(eventually([&] { return probe->started.load(); }));
  EXPECT_TRUE(hosts_.running(1));
  hosts_.inject(1, Envelope::of(JoinRequest{}));
  EXPECT_TRUE(eventually([&] { return probe->received.load() == 1; }));
  EXPECT_EQ(probe->last_from.load(), kInvalidNode);
  hosts_.stop(1);
  // Node::stop ran exactly once, on the node thread, before stop returned.
  EXPECT_EQ(probe->stopped.load(), 1);
  EXPECT_FALSE(hosts_.running(1));
  // A stopped loop refuses further work.
  hosts_.inject(1, Envelope::of(JoinRequest{}));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(probe->received.load(), 1);
}

TEST_P(LoopContract, TimersAndCancellation) {
  ProbeNode* probe = add_probe(1);
  hosts_.start_all();
  ASSERT_TRUE(eventually([&] { return probe->started.load(); }));
  std::atomic<int> fired{0};
  probe->ctx_->set_timer(0.03, [&] { fired.fetch_add(1); });
  const TimerId cancel_me =
      probe->ctx_->set_timer(0.03, [&] { fired.fetch_add(100); });
  probe->ctx_->cancel_timer(cancel_me);
  EXPECT_TRUE(eventually([&] { return fired.load() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(fired.load(), 1);
  hosts_.shutdown();
}

TEST_P(LoopContract, ChargeDefersWithoutRecursion) {
  ProbeNode* probe = add_probe(1);
  hosts_.start_all();
  ASSERT_TRUE(eventually([&] { return probe->started.load(); }));
  std::atomic<int> done{0};
  // A long chain of charge() completions must not blow the stack.
  std::function<void()> step;
  step = [&] {
    if (done.fetch_add(1) < 5000) probe->ctx_->charge(1.0, step);
  };
  probe->ctx_->charge(1.0, step);
  EXPECT_TRUE(eventually([&] { return done.load() >= 5001; }, 10.0));
  hosts_.shutdown();
}

TEST_P(LoopContract, ShutdownIdempotentAndSafeWithTraffic) {
  ProbeNode* nodes[2] = {add_probe(1), add_probe(2)};
  nodes[0]->forward_to = 2;
  nodes[1]->forward_to = 1;  // ping-pong forever
  hosts_.start_all();
  hosts_.inject(1, Envelope::of(JoinRequest{}));
  EXPECT_TRUE(eventually([&] { return nodes[1]->received.load() > 0; }));
  hosts_.shutdown();
  hosts_.shutdown();
  EXPECT_EQ(nodes[0]->stopped.load(), 1);
  EXPECT_EQ(nodes[1]->stopped.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(Hosts, LoopContract,
                         ::testing::Values(HostKind::kThreadCluster,
                                           HostKind::kTcpHost),
                         [](const ::testing::TestParamInfo<HostKind>& info) {
                           return host_name(info.param);
                         });

// ---------------------------------------------------------------------------
// ThreadCluster only
// ---------------------------------------------------------------------------

TEST(ThreadCluster, MessagesRelayThroughChain) {
  runtime::ThreadCluster cluster;
  ProbeNode* nodes[3];
  for (NodeId id = 1; id <= 3; ++id) {
    auto node = std::make_unique<ProbeNode>();
    nodes[id - 1] = node.get();
    cluster.add_node(id, std::move(node));
  }
  nodes[0]->forward_to = 2;
  nodes[1]->forward_to = 3;
  cluster.start_all();
  cluster.inject(1, Envelope::of(JoinRequest{}));
  EXPECT_TRUE(eventually([&] { return nodes[2]->received.load() == 1; }));
  EXPECT_EQ(nodes[2]->last_from.load(), 2u);
  EXPECT_EQ(nodes[1]->last_from.load(), 1u);
  cluster.shutdown();
}

TEST(ThreadCluster, SendToMissingNodeCountsDrop) {
  runtime::ThreadCluster cluster;
  auto node = std::make_unique<ProbeNode>();
  ProbeNode* probe = node.get();
  probe->forward_to = 99;  // nobody there
  cluster.add_node(1, std::move(node));
  cluster.start(1);
  cluster.inject(1, Envelope::of(JoinRequest{}));
  EXPECT_TRUE(eventually([&] { return cluster.dropped_messages() == 1; }));
  cluster.shutdown();
}

TEST(ThreadCluster, NowAdvances) {
  runtime::ThreadCluster cluster;
  const Timestamp t0 = cluster.now();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_GT(cluster.now(), t0 + 0.02);
}

}  // namespace
}  // namespace bluedove
