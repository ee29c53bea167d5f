#pragma once
// ThreadCluster: the real-time substrate. Each node runs on its own thread
// in a runtime::NodeLoop (a SEDA-style task queue of messages and deferred
// work completions, plus a timer heap), so the exact same Node
// implementations that drive the simulator also run as a live in-process
// cluster. This substrate backs the
// public bluedove::Service facade and the examples; performance experiments
// use the deterministic simulator instead.

#include <atomic>
#include <chrono>
#include <memory>
#include <unordered_map>

#include "common/bounded_queue.h"
#include "common/thread_safety.h"
#include "common/rng.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace bluedove::runtime {

struct ThreadClusterConfig {
  std::uint64_t seed = 42;
  /// Maximum queued tasks per node before senders start dropping (models a
  /// bounded socket buffer; prevents unbounded memory under overload).
  std::size_t inbox_capacity = 65536;
};

class ThreadCluster {
 public:
  explicit ThreadCluster(ThreadClusterConfig config = {});
  ~ThreadCluster();

  ThreadCluster(const ThreadCluster&) = delete;
  ThreadCluster& operator=(const ThreadCluster&) = delete;

  /// Registers a node (cluster owns it). Must be called before start(id).
  void add_node(NodeId id, std::unique_ptr<Node> node);

  /// Spawns the node's thread and calls Node::start on it.
  void start(NodeId id);
  void start_all();

  /// Graceful stop: drains nothing, just halts the loop and joins.
  void stop(NodeId id);
  /// Stops every node (also done by the destructor).
  void shutdown();

  bool running(NodeId id) const;

  Node* node(NodeId id);
  template <typename T>
  T* node_as(NodeId id) {
    return static_cast<T*>(node(id));
  }

  /// Seconds since cluster construction (the Timestamp axis for this
  /// substrate).
  Timestamp now() const;

  /// Delivers a message from outside the cluster (a client).
  void inject(NodeId to, Envelope env);

  std::uint64_t dropped_messages() const { return dropped_.load(); }

  /// Inbox instrumentation for one node (depth, high-water mark, enqueue /
  /// dequeue / drop counts); nullptr when the node is unknown. The fields
  /// are relaxed atomics, safe to read while the node runs.
  const QueueStats* inbox_stats(NodeId id) const;

  /// Substrate-level metrics: per-node inbox gauges/counters plus the
  /// cluster-wide drop total, named so they merge cleanly with the nodes'
  /// own registries in a cluster snapshot.
  obs::MetricsSnapshot metrics_snapshot() const;

 private:
  struct NodeRuntime;

  NodeRuntime* runtime(NodeId id) BD_EXCLUDES(nodes_mu_);
  const NodeRuntime* runtime(NodeId id) const BD_EXCLUDES(nodes_mu_);
  /// Send routing: hands `env` to the destination node's loop, dropping it
  /// (and counting the drop) when that node is unknown, not started,
  /// stopping, or already holds `inbox_capacity` tasks.
  void enqueue(NodeId to, NodeId from, Envelope env);

  ThreadClusterConfig config_;
  std::chrono::steady_clock::time_point epoch_;
  Rng seed_rng_;
  mutable bd::Mutex nodes_mu_;
  /// The map itself is guarded; the pointed-to NodeRuntimes are stable
  /// (never erased before shutdown) and their loops carry their own lock.
  std::unordered_map<NodeId, std::unique_ptr<NodeRuntime>> nodes_
      BD_GUARDED_BY(nodes_mu_);
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace bluedove::runtime
