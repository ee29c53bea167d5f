#include "runtime/thread_cluster.h"

#include <string>
#include <vector>

#include "runtime/node_loop.h"

namespace bluedove::runtime {

namespace {
using Clock = std::chrono::steady_clock;
}

struct ThreadCluster::NodeRuntime {
  NodeRuntime(ThreadCluster* cluster, NodeId id, std::unique_ptr<Node> node,
              std::uint64_t seed)
      : loop(id, std::move(node),
             [cluster, id](NodeId to, Envelope&& env) {
               cluster->enqueue(to, id, std::move(env));
             },
             seed, cluster->epoch_, cluster->config_.inbox_capacity,
             &exec_metrics) {}

  /// Per-node exec.* instruments (worker pool); merged into the cluster
  /// snapshot under runtime.node<id>. Declared before the loop so it
  /// outlives the pool that records into it.
  obs::MetricsRegistry exec_metrics;
  NodeLoop loop;
};

ThreadCluster::ThreadCluster(ThreadClusterConfig config)
    : config_(config), epoch_(Clock::now()), seed_rng_(config.seed) {}

ThreadCluster::~ThreadCluster() { shutdown(); }

Timestamp ThreadCluster::now() const {
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

void ThreadCluster::add_node(NodeId id, std::unique_ptr<Node> node) {
  auto rt = std::make_unique<NodeRuntime>(this, id, std::move(node),
                                          seed_rng_.next_u64());
  bd::LockGuard lock(nodes_mu_);
  nodes_[id] = std::move(rt);
}

ThreadCluster::NodeRuntime* ThreadCluster::runtime(NodeId id) {
  bd::LockGuard lock(nodes_mu_);
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

const ThreadCluster::NodeRuntime* ThreadCluster::runtime(NodeId id) const {
  bd::LockGuard lock(nodes_mu_);
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

void ThreadCluster::start(NodeId id) {
  NodeRuntime* rt = runtime(id);
  if (rt != nullptr) rt->loop.start();
}

void ThreadCluster::start_all() {
  std::vector<NodeId> ids;
  {
    bd::LockGuard lock(nodes_mu_);
    for (const auto& [id, rt] : nodes_) ids.push_back(id);
  }
  for (NodeId id : ids) start(id);
}

void ThreadCluster::stop(NodeId id) {
  NodeRuntime* rt = runtime(id);
  if (rt != nullptr) rt->loop.stop();
}

void ThreadCluster::shutdown() {
  std::vector<NodeId> ids;
  {
    bd::LockGuard lock(nodes_mu_);
    for (const auto& [id, rt] : nodes_) ids.push_back(id);
  }
  for (NodeId id : ids) stop(id);
}

bool ThreadCluster::running(NodeId id) const {
  const NodeRuntime* rt = runtime(id);
  return rt != nullptr && rt->loop.running();
}

Node* ThreadCluster::node(NodeId id) {
  NodeRuntime* rt = runtime(id);
  return rt != nullptr ? rt->loop.node() : nullptr;
}

void ThreadCluster::enqueue(NodeId to, NodeId from, Envelope env) {
  NodeRuntime* rt = runtime(to);
  if (rt == nullptr) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Node* node = rt->loop.node();
  const bool queued = rt->loop.post(
      [node, from, env = std::move(env)]() mutable {
        node->on_receive(from, std::move(env));
      },
      config_.inbox_capacity);
  if (!queued) dropped_.fetch_add(1, std::memory_order_relaxed);
}

void ThreadCluster::inject(NodeId to, Envelope env) {
  enqueue(to, kInvalidNode, std::move(env));
}

const QueueStats* ThreadCluster::inbox_stats(NodeId id) const {
  const NodeRuntime* rt = runtime(id);
  return rt != nullptr ? &rt->loop.inbox_stats() : nullptr;
}

obs::MetricsSnapshot ThreadCluster::metrics_snapshot() const {
  obs::MetricsSnapshot snap;
  bd::LockGuard lock(nodes_mu_);
  for (const auto& [id, rt] : nodes_) {
    const QueueStats& s = rt->loop.inbox_stats();
    const std::string prefix = "runtime.node" + std::to_string(id);
    snap.gauges[prefix + ".inbox_depth"] =
        static_cast<double>(s.depth.load(std::memory_order_relaxed));
    snap.gauges[prefix + ".inbox_high_water"] =
        static_cast<double>(s.high_water.load(std::memory_order_relaxed));
    snap.counters[prefix + ".inbox_enqueued"] =
        s.enqueued.load(std::memory_order_relaxed);
    snap.counters[prefix + ".inbox_dequeued"] =
        s.dequeued.load(std::memory_order_relaxed);
    snap.counters[prefix + ".inbox_dropped"] =
        s.dropped.load(std::memory_order_relaxed);
    // Empty until the node's offload pool registers its instruments.
    snap.merge(rt->exec_metrics.snapshot().prefixed(prefix + "."));
  }
  snap.counters["runtime.dropped_messages"] =
      dropped_.load(std::memory_order_relaxed);
  return snap;
}

}  // namespace bluedove::runtime
