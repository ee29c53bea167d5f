#pragma once
// Client edge layer: an epoll reactor front end with reliable, resumable
// sessions (DESIGN.md §16).
//
// The paper's dispatchers exist to absorb client load, but node<->node TCP
// (net/tcp_transport.h) spends one thread per connection — fine for a few
// dozen cluster peers, hopeless for the paper's "millions of users". An
// EdgeFrontend multiplexes hundreds of thousands of persistent client
// sockets over a small acceptor+reactor thread pool:
//
//   acceptor      blocking accept loop; sets the socket up (non-blocking,
//                 TCP_NODELAY, FD_CLOEXEC) and hands the fd to a reactor
//                 round-robin
//   reactor x N   one epoll instance each, level-triggered, interest-mask
//                 driven: per-connection state machines assemble frames
//                 from partial reads, queue outbound bytes in a bounded
//                 per-connection buffer, and arm EPOLLOUT only while that
//                 buffer has unsent bytes. A connection whose buffer
//                 exceeds the bound is evicted (slow-client policy) — the
//                 reactor never blocks on any one socket.
//
// Sessions ride on top of connections and outlive them. A client's first
// envelope is an EdgeHello; the edge mints a session id (or resumes an
// existing one), then stamps every outbound delivery with a per-session
// sequence number and keeps a bounded replay ring of unacknowledged
// EdgeEvents. EdgeAck trims the ring; on reconnect-with-resume the ring is
// replayed past the client's last seen sequence number, so delivery is
// gap-free across drops as long as the ring has not overflowed (the
// MigratoryData recipe). Sessions that stay detached past the timeout are
// reaped, and their subscriptions unsubscribed from the cluster.
//
// Wire format on client connections is the cluster framing (net/wire.h):
// frames assemble into refcounted buffers and parse into zero-copy payload
// views, and the delivery fan-out serializes each payload straight from
// the matcher frame's shared block (attr/payload.h) — one buffer serves
// every subscriber on every socket, wire.payload_copies stays 0. Each
// connection's write queue is a wire::FrameBuilder closed at the end of
// every reactor wake, so the deliveries one wake queues for a connection
// leave as one frame (split only at wire::kMaxFrame). Inbound, a client
// frame header claiming more than 1 MiB is malformed: the connection is
// closed before any buffer is allocated for it.
//
// Integration: the frontend owns no dispatcher logic. Client envelopes
// (subscribe / unsubscribe / publish, with ids rewritten to edge-global
// ones) are handed to the `ingress` callback — bluedove_noded wires that
// to TcpHost::inject, which runs them through DispatcherNode on its node
// thread. Deliveries fan back via deliver(), called on the node thread for
// every Delivery envelope the matchers send to the dispatcher
// (DispatcherNode::on_delivery).

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/affinity.h"
#include "common/thread_safety.h"
#include "net/protocol.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace bluedove::edge {

struct EdgeConfig {
  std::string host = "0.0.0.0";
  std::uint16_t port = 0;  ///< 0 picks an ephemeral port (readable via port())
  int reactors = 2;        ///< reactor thread count (>= 1)
  /// Accept cap across all reactors; connections beyond it are closed
  /// immediately (counted as edge.accept_rejects).
  std::size_t max_connections = 1u << 20;
  /// Slow-client bound: a connection holding more than this many unsent
  /// outbound bytes is evicted (its session stays resumable).
  std::size_t write_queue_bytes = 1u << 20;
  /// Per-session replay ring bound, in unacknowledged deliveries. When the
  /// ring is full the oldest entry is dropped (edge.replay_overflow) and a
  /// later resume past it reports a gap.
  std::size_t replay_entries = 128;
  double session_timeout = 30.0;  ///< detached-session lifetime, seconds
  double reap_interval = 1.0;     ///< detached-session scan cadence
  int listen_backlog = 4096;
};

class EdgeFrontend {
 public:
  /// Sink for client envelopes entering the cluster. Must be callable from
  /// any reactor thread and must not block (TcpHost::inject qualifies: it
  /// enqueues onto the node task queue).
  using IngressFn = std::function<void(Envelope&&)>;

  /// Binds the listening socket immediately; start() begins serving.
  /// `node` is the hosting dispatcher's id, used for recorder bindings and
  /// thread labels.
  EdgeFrontend(EdgeConfig config, NodeId node, IngressFn ingress);
  ~EdgeFrontend();

  EdgeFrontend(const EdgeFrontend&) = delete;
  EdgeFrontend& operator=(const EdgeFrontend&) = delete;

  void start();
  void stop();  ///< idempotent; joins the acceptor and every reactor

  std::uint16_t port() const { return port_; }

  /// Routes one matched delivery to its session's reactor (the delivery's
  /// `subscriber` field is the session id). Thread-safe and non-blocking;
  /// called from the dispatcher node thread per fanned-back Delivery.
  BD_ANY_THREAD void deliver(const Delivery& d);

  /// Edge instrumentation (edge.* namespace). Snapshot-safe from any
  /// thread; bluedove_noded merges it into the dispatcher's stats export.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  // --- introspection (tests) ----------------------------------------------
  std::uint64_t connections() const;
  std::uint64_t sessions() const;

 private:
  struct Conn;
  struct Session;
  struct Reactor;
  struct Task;

  void accept_loop();
  void reactor_loop(Reactor& r);
  void post(Reactor& r, Task&& t);

  // All of the below run on the owning reactor's thread.
  void adopt_conn(Reactor& r, std::unique_ptr<Conn> conn);
  BD_ANY_THREAD void handle_readable(Reactor& r, Conn& c);
  BD_ANY_THREAD void handle_writable(Reactor& r, Conn& c);
  BD_ANY_THREAD void handle_envelope(Reactor& r, Conn& c, Envelope&& env);
  BD_ANY_THREAD void handle_hello(Reactor& r, Conn& c, const EdgeHello& hello,
                                  std::vector<Envelope>&& rest);
  void attach_session(Reactor& r, Conn& c, const EdgeHello& hello);
  void enqueue_event(Reactor& r, Conn& c, const Envelope& env);
  void count_frame(const net::wire::FrameStats& frame);
  void flush_conn(Reactor& r, Conn& c);
  void update_interest(Reactor& r, Conn& c);
  void close_conn(Reactor& r, Conn& c, bool evicted);
  void reap_sessions(Reactor& r);
  void drop_session(Reactor& r, Session& s);
  void deliver_on_reactor(Reactor& r, const Delivery& d, double enqueued_at);

  Reactor& reactor_of(std::uint64_t session) {
    return *reactors_[session % reactors_.size()];
  }

  EdgeConfig config_;
  NodeId node_;
  IngressFn ingress_;

  std::atomic<int> listen_fd_{-1};
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::thread accept_thread_;
  std::vector<std::unique_ptr<Reactor>> reactors_;

  std::atomic<std::uint64_t> conn_count_{0};
  std::atomic<std::uint64_t> session_count_{0};
  std::atomic<std::uint64_t> next_sub_id_{1};
  std::atomic<std::uint64_t> next_msg_id_{1};

  obs::MetricsRegistry metrics_;
  obs::Counter* m_accepts_ = nullptr;
  obs::Counter* m_accept_rejects_ = nullptr;
  obs::Counter* m_disconnects_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
  obs::Counter* m_malformed_ = nullptr;
  obs::Counter* m_sessions_created_ = nullptr;
  obs::Counter* m_sessions_resumed_ = nullptr;
  obs::Counter* m_sessions_reaped_ = nullptr;
  obs::Counter* m_subscribes_ = nullptr;
  obs::Counter* m_unsubscribes_ = nullptr;
  obs::Counter* m_publishes_ = nullptr;
  obs::Counter* m_acks_ = nullptr;
  obs::Counter* m_deliveries_ = nullptr;
  obs::Counter* m_deliveries_orphaned_ = nullptr;
  obs::Counter* m_replay_hits_ = nullptr;
  obs::Counter* m_replay_gaps_ = nullptr;
  obs::Counter* m_replay_overflow_ = nullptr;
  obs::Counter* m_frames_out_ = nullptr;
  obs::Counter* m_bytes_out_ = nullptr;
  obs::Gauge* m_conns_ = nullptr;
  obs::Gauge* m_sessions_gauge_ = nullptr;
  obs::Gauge* m_queue_high_water_ = nullptr;
  obs::LatencyHistogram* m_frame_envs_ = nullptr;  ///< envelopes per frame
  obs::LatencyHistogram* m_delivery_latency_ = nullptr;  ///< deliver() -> flush
};

}  // namespace bluedove::edge
