#pragma once
// NodeLoop: the event loop that runs one Node on its own thread. Both
// real-time hosts use it: ThreadCluster (many nodes in one process) and
// net::TcpHost (one node per process, peers over TCP).
//
// The node thread is the node's serialized execution context. Node::start,
// message handlers, timer callbacks, charge() completions and offload
// completions all run on it, in the order the SEDA-style task queue and the
// timer heap release them. Everything else reaches the node by post()ing a
// task: peer traffic (the host's send routing or socket readers) and
// offload completions (the MatchExecutor workers).
//
// NodeLoop is also the node's NodeContext, except for send(): the host
// supplies that as a callback, because that is the one thing the hosts do
// differently (an in-process hand-off to another loop, or the TCP wire).
// A host that buffers sends also supplies a flush callback, which the loop
// runs on the node thread after Node::start, after every task and after
// every timer callback, so no message waits past the end of the handler
// that sent it (TcpHost coalesces each handler's sends per peer this way).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "common/affinity.h"
#include "common/bounded_queue.h"
#include "common/rng.h"
#include "common/thread_safety.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "runtime/match_executor.h"

namespace bluedove::runtime {

class NodeLoop final : public NodeContext {
 public:
  using Clock = std::chrono::steady_clock;
  using Task = std::function<void()>;
  /// Routes node-originated sends; called on the node thread.
  using Send = std::function<void(NodeId to, Envelope&& env)>;
  /// Writes out what the handler that just returned sent; called on the
  /// node thread.
  using Flush = std::function<void()>;

  /// `epoch` is the zero of now(). `seed` seeds the node's Rng and its
  /// offload workers. `lane_capacity` bounds each offload lane.
  /// `exec_metrics` (optional, not owned, must outlive the loop) receives
  /// the offload pool's exec.* instruments. `flush` runs after
  /// Node::start, every task and every timer callback.
  NodeLoop(NodeId self, std::unique_ptr<Node> node, Send send,
           std::uint64_t seed, Clock::time_point epoch,
           std::size_t lane_capacity, obs::MetricsRegistry* exec_metrics,
           Flush flush = [] {});
  /// Stops the loop if the host has not.
  ~NodeLoop() override;

  NodeLoop(const NodeLoop&) = delete;
  NodeLoop& operator=(const NodeLoop&) = delete;

  Node* node() const { return node_.get(); }

  /// Spawns the node thread, which runs Node::start and then the loop.
  /// Returns false when the loop was already started or stopped.
  bool start() BD_EXCLUDES(mu_);

  /// Stop, phase one: refuse new tasks and wake the node thread so it
  /// exits. Returns false when a stop was already requested. A loop that
  /// was never started can no longer start.
  bool request_stop() BD_EXCLUDES(mu_);
  /// Stop, phase two: join the node thread (it runs Node::stop as the loop
  /// exits), then stop the offload pool, whose late completions are
  /// refused, then audit the inbox accounting, which must close exactly.
  void join() BD_EXCLUDES(mu_);
  /// Both phases; idempotent.
  void stop() {
    if (request_stop()) join();
  }

  bool running() const BD_EXCLUDES(mu_);

  /// Queues `task` for the node thread, from any thread. Refused (false)
  /// before start(); refused and counted as an inbox drop once stopping or
  /// when `limit` tasks are already queued.
  bool post(Task task,
            std::size_t limit = std::numeric_limits<std::size_t>::max())
      BD_EXCLUDES(mu_);

  /// Inbox instrumentation (relaxed atomics, readable while the loop runs).
  const QueueStats& inbox_stats() const { return inbox_stats_; }

  // NodeContext.
  NodeId self() const override { return self_; }
  Timestamp now() const override;
  void send(NodeId to, Envelope env) override { send_(to, std::move(env)); }
  TimerId set_timer(Timestamp delay, Task fn) override BD_EXCLUDES(mu_);
  void cancel_timer(TimerId id) override BD_EXCLUDES(mu_);
  /// The real cycles were already spent on this thread; the completion is
  /// deferred through the task queue so callers that bound their in-flight
  /// work (the matcher's core accounting) do not recurse. Never refused for
  /// capacity: such callers must see every completion.
  void charge(double work_units, Task done) override;
  Rng& rng() override { return rng_; }
  bool enable_offload(int workers, std::size_t lanes) override
      BD_EXCLUDES(mu_);
  void offload(std::size_t lane, OffloadWork work, OffloadDone done) override
      BD_EXCLUDES(mu_);

 private:
  BD_NODE_THREAD void run() BD_EXCLUDES(mu_);

  const NodeId self_;
  std::unique_ptr<Node> node_;
  Send send_;
  Flush flush_;
  const std::uint64_t seed_;
  const Clock::time_point epoch_;
  const std::size_t lane_capacity_;
  obs::MetricsRegistry* exec_metrics_;
  Rng rng_;

  mutable bd::Mutex mu_;
  bd::CondVar cv_;
  /// Messages and deferred completions, FIFO.
  std::deque<Task> tasks_ BD_GUARDED_BY(mu_);
  /// Pending timers keyed by deadline.
  std::multimap<Clock::time_point, std::pair<TimerId, Task>> timers_
      BD_GUARDED_BY(mu_);
  TimerId next_timer_id_ BD_GUARDED_BY(mu_) = 1;
  bool started_ BD_GUARDED_BY(mu_) = false;
  bool stopping_ BD_GUARDED_BY(mu_) = false;
  /// SEDA-stage instrumentation for the task queue: depth, high-water
  /// mark, refusals once stopping or full.
  QueueStats inbox_stats_;
  /// Offload worker pool; created lazily by enable_offload on the node
  /// thread and stopped by join() on the control thread. Declared after
  /// the fields its workers post into.
  std::unique_ptr<MatchExecutor> executor_ BD_GUARDED_BY(mu_);
  /// The node thread; declared after everything it uses. Written by
  /// start(), joined by join(); the control-plane callers are serialized
  /// by the `started_`/`stopping_` handshake under mu_.
  std::thread thread_;
};

}  // namespace bluedove::runtime
