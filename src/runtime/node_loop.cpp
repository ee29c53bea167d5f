#include "runtime/node_loop.h"

#include <algorithm>
#include <string>

#include "obs/audit.h"
#include "obs/recorder.h"

namespace bluedove::runtime {

NodeLoop::NodeLoop(NodeId self, std::unique_ptr<Node> node, Send send,
                   std::uint64_t seed, Clock::time_point epoch,
                   std::size_t lane_capacity,
                   obs::MetricsRegistry* exec_metrics, Flush flush)
    : self_(self),
      node_(std::move(node)),
      send_(std::move(send)),
      flush_(std::move(flush)),
      seed_(seed),
      epoch_(epoch),
      lane_capacity_(lane_capacity),
      exec_metrics_(exec_metrics),
      rng_(seed) {}

NodeLoop::~NodeLoop() { stop(); }

bool NodeLoop::start() {
  {
    bd::LockGuard lock(mu_);
    if (started_ || stopping_) return false;  // a racing second start() loses
    started_ = true;
  }
  thread_ = std::thread([this] { run(); });
  return true;
}

bool NodeLoop::request_stop() {
  {
    bd::LockGuard lock(mu_);
    if (stopping_) return false;
    stopping_ = true;
  }
  cv_.notify_all();
  return true;
}

void NodeLoop::join() {
  if (thread_.joinable()) thread_.join();
  // Stop the offload pool after the node thread is gone: no new submissions
  // can arrive, running jobs finish, and post() refuses their completions.
  MatchExecutor* executor = nullptr;
  {
    bd::LockGuard lock(mu_);
    executor = executor_.get();
  }
  if (executor != nullptr) executor->stop();
  // The inbox is quiescent now (post() refuses before touching the
  // enqueue counters), so its accounting must close exactly.
  obs::audit_queue_accounting(
      ("node" + std::to_string(self_) + ".inbox").c_str(),
      inbox_stats_.depth.load(std::memory_order_relaxed),
      inbox_stats_.high_water.load(std::memory_order_relaxed),
      inbox_stats_.enqueued.load(std::memory_order_relaxed),
      inbox_stats_.dequeued.load(std::memory_order_relaxed));
}

bool NodeLoop::running() const {
  bd::LockGuard lock(mu_);
  return started_ && !stopping_;
}

bool NodeLoop::post(Task task, std::size_t limit) {
  {
    bd::LockGuard lock(mu_);
    if (!started_) return false;  // not accepting yet; not an inbox drop
    if (stopping_ || tasks_.size() >= limit) {
      inbox_stats_.dropped.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    tasks_.push_back(std::move(task));
    inbox_stats_.on_enqueue();
  }
  cv_.notify_one();
  return true;
}

void NodeLoop::run() {
  // This thread IS the node's serialized execution context for its whole
  // lifetime: start, message handlers, timer callbacks, offload
  // completions. One binding covers them all.
  affinity::ScopedNodeBind bind(this);
  // Flight-recorder identity: every event this thread emits carries the
  // node id, and the Perfetto export names the track after it.
  obs::Recorder::bind_node(self_);
  obs::Recorder::label_thread("node" + std::to_string(self_));
  node_->start(*this);
  flush_();
  bd::UniqueLock lock(mu_);
  while (true) {
    // Fire due timers.
    const auto now_tp = Clock::now();
    while (!timers_.empty() && timers_.begin()->first <= now_tp) {
      auto fn = std::move(timers_.begin()->second.second);
      timers_.erase(timers_.begin());
      lock.unlock();
      fn();
      flush_();
      lock.lock();
    }
    if (stopping_) break;
    if (!tasks_.empty()) {
      auto task = std::move(tasks_.front());
      tasks_.pop_front();
      inbox_stats_.on_dequeue();
      lock.unlock();
      task();
      flush_();
      lock.lock();
      continue;
    }
    if (timers_.empty()) {
      while (!stopping_ && tasks_.empty() && timers_.empty()) {
        cv_.wait(lock);
      }
    } else {
      cv_.wait_until(lock, timers_.begin()->first);
    }
  }
  lock.unlock();
  node_->stop();
}

Timestamp NodeLoop::now() const {
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

TimerId NodeLoop::set_timer(Timestamp delay, Task fn) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(std::max(delay, 0.0)));
  TimerId id = 0;
  {
    bd::LockGuard lock(mu_);
    id = next_timer_id_++;
    timers_.emplace(deadline, std::make_pair(id, std::move(fn)));
  }
  cv_.notify_one();
  return id;
}

void NodeLoop::cancel_timer(TimerId id) {
  if (id == kInvalidTimer) return;
  bd::LockGuard lock(mu_);
  for (auto it = timers_.begin(); it != timers_.end(); ++it) {
    if (it->second.first == id) {
      timers_.erase(it);
      return;
    }
  }
}

void NodeLoop::charge(double /*work_units*/, Task done) {
  post(std::move(done));
}

bool NodeLoop::enable_offload(int workers, std::size_t lanes) {
  if (workers < 1) return false;
  {
    bd::LockGuard lock(mu_);
    if (executor_ != nullptr) return true;
  }
  MatchExecutorConfig cfg;
  cfg.workers = workers;
  cfg.lanes = std::max<std::size_t>(lanes, 1);
  cfg.lane_capacity = lane_capacity_;
  cfg.seed = seed_;
  cfg.owner = self_;
  auto executor = std::make_unique<MatchExecutor>(
      cfg, [this](Task fn) { post(std::move(fn)); }, exec_metrics_);
  bd::LockGuard lock(mu_);
  executor_ = std::move(executor);
  return true;
}

void NodeLoop::offload(std::size_t lane, OffloadWork work, OffloadDone done) {
  MatchExecutor* executor = nullptr;
  {
    bd::LockGuard lock(mu_);
    executor = executor_.get();
  }
  if (executor != nullptr && executor->submit(lane, work, done)) return;
  // No pool (enable_offload never accepted) or the lane is full: run inline
  // on the node thread and defer the completion, exactly like the
  // single-threaded substrate contract.
  OffloadWorker self{-1, &rng_};
  const double units = work(self);
  charge(units, [done = std::move(done), units] { done(units); });
}

}  // namespace bluedove::runtime
