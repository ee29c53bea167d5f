#pragma once
// TCP transport: the same Node logic over real sockets.
//
// A TcpHost runs ONE node (matcher or dispatcher) in a runtime::NodeLoop
// whose send() ships length-prefixed serialized envelopes over TCP to peer
// hosts — in another thread, another process, or another machine. This is
// the deployment substrate a production BlueDove would use; the simulator
// reproduces the paper's experiments, the thread cluster backs the embedded
// Service, and this backs multi-process clusters (see
// tools/bluedove_noded.cpp).
//
// Wire framing (net/wire.h), per frame:
//   u32  frame length (bytes that follow, little-endian)
//   u32  sender node id
//   ...  one or more serialized Envelopes, back to back
//
// Outbound path. With WireConfig::batch == 1 (the default) every send()
// serializes once into a reusable buffer and writes one single-envelope
// frame synchronously — the historical per-message behaviour. With
// batch > 1 the host switches to the asynchronous batched path:
//
//   node thread        serialize once into a pooled buffer, push onto the
//                      peer's bounded send queue (drop + count when full),
//                      mark the peer dirty, wake a writer
//   writer pool        drains dirty peers: dials the peer if needed (so
//                      connects never block the node thread), coalesces up
//                      to `batch` queued envelopes into each frame, and
//                      flushes many frames with one sendmsg() — amortizing
//                      the syscall, not just the copy
//
// Transport semantics match the NodeContext contract either way: sends are
// asynchronous and unreliable-by-contract (a broken or unreachable peer
// drops the message, a full send queue drops the newest envelope; failure
// detection happens at the protocol layer). Drops are counted in
// dropped_sends() and in the host's wire metrics registry.

#include <sys/uio.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_safety.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "runtime/node_loop.h"

namespace bluedove::net {

struct TcpEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Best-effort bump of RLIMIT_NOFILE toward `want` (clamped to the hard
/// limit — raising that needs CAP_SYS_RESOURCE, which containers rarely
/// grant). Returns the soft limit in effect afterwards so callers can log
/// the outcome; never fails harder than leaving the limit unchanged.
std::size_t raise_fd_limit(std::size_t want);

/// Outbound wire-path tuning. The default (batch = 1) preserves strict
/// per-message synchronous sends; batch > 1 enables the queued writer pool.
struct WireConfig {
  /// Maximum envelopes coalesced into one frame (and the fill target a
  /// writer waits `flush_interval` for before flushing a partial batch).
  int batch = 1;
  /// How long a writer lingers for a batch to fill before flushing what is
  /// queued (seconds). 0 flushes immediately on wake.
  double flush_interval = 0.0;
  /// Per-peer bounded send queue, in envelopes; the newest envelope is
  /// dropped (and counted) when the queue is full — backpressure never
  /// blocks the node thread.
  std::size_t queue_capacity = 4096;
  /// Writer pool size.
  int writers = 2;

  bool async() const { return batch > 1; }
};

class TcpHost {
 public:
  /// Binds the listening socket immediately (so port 0 resolves to a real
  /// ephemeral port readable via port()); call start() to begin serving.
  TcpHost(NodeId self, std::uint16_t listen_port, std::unique_ptr<Node> node,
          std::uint64_t seed = 42, WireConfig wire = {});
  ~TcpHost();

  TcpHost(const TcpHost&) = delete;
  TcpHost& operator=(const TcpHost&) = delete;

  NodeId id() const { return self_; }
  std::uint16_t port() const { return port_; }

  /// Registers/updates where a peer node can be reached. May be called
  /// before or after start().
  void add_peer(NodeId id, TcpEndpoint endpoint);

  /// Starts the accept loop, the node thread (which calls Node::start),
  /// and the writer pool (async wire path only).
  void start();

  /// Stops serving and joins all threads; Node::stop runs on the node
  /// thread as its loop exits. Idempotent.
  void stop();

  /// True between start() and stop().
  bool running() const { return loop_.running(); }

  Node* node() { return loop_.node(); }
  template <typename T>
  T* node_as() {
    return static_cast<T*>(loop_.node());
  }

  std::uint64_t dropped_sends() const { return dropped_sends_.load(); }

  /// Injects an envelope into the hosted node's receive path as if it had
  /// arrived on the wire from `from` — the node task queue serializes it
  /// with real socket traffic. Lets in-process front ends (the client edge
  /// layer) hand ingress to the node thread without a loopback round trip.
  /// Safe from any thread; dropped before start() and after stop() begins.
  void inject(NodeId from, Envelope&& env);

  /// Host-level instrumentation: bytes/frames/envelopes sent, frame
  /// batch-size histogram, per-peer queue depth gauges, the offload pool's
  /// exec.* instruments, and the node inbox's runtime.inbox_depth /
  /// runtime.inbox_high_water gauges (refreshed by this call). Safe from
  /// any thread; bluedove_noded merges this into its stats export.
  const obs::MetricsRegistry& wire_metrics() const;

  /// One-shot client helper: connect, send one envelope (sender id
  /// kInvalidNode), close. Returns false when the peer is unreachable.
  static bool send_once(const TcpEndpoint& endpoint, const Envelope& env);

  /// One-shot request/reply: connect as `self`, send `req`, wait up to
  /// `timeout_sec` for one reply frame on the same connection (the server
  /// replies over its learned return path) and parse it into `resp`.
  /// Returns false on connect failure, timeout or a malformed reply.
  static bool request_reply(const TcpEndpoint& endpoint, NodeId self,
                            const Envelope& req, Envelope* resp,
                            double timeout_sec = 5.0);

 private:
  /// Per-peer outbound state for the async wire path. Stable address (held
  /// by unique_ptr, never erased before stop), so writers can reference it
  /// outside the peers lock. The `draining` flag makes each peer drained by
  /// at most one writer at a time: it stays true from the moment the peer
  /// is queued dirty until a writer observes an empty queue under `mu`.
  struct PeerQueue {
    explicit PeerQueue(NodeId peer) : id(peer) {}
    const NodeId id;
    bd::Mutex mu;
    /// Serialized envelopes awaiting a writer.
    std::deque<std::vector<std::uint8_t>> pending BD_GUARDED_BY(mu);
    bool draining BD_GUARDED_BY(mu) = false;
    /// Writer-owned outbound connection. Atomic (seq_cst) because stop()
    /// scans it to shutdown() a socket a writer may be blocked on: the
    /// writer stores the fd then checks writers_stop_, stop() sets
    /// writers_stop_ then scans — one side always observes the other.
    std::atomic<int> fd{-1};
    /// Endpoint changed; writer must reconnect.
    bool redial BD_GUARDED_BY(mu) = false;
    /// Gauges are registered under peers_mu_ before the queue becomes
    /// reachable to writers, then only read through stable pointers.
    obs::Gauge* depth = nullptr;       ///< wire.peer<id>.queue_depth
    obs::Gauge* high_water = nullptr;  ///< wire.peer<id>.queue_high_water
  };

  void accept_loop();
  void reader_loop(int fd);
  void writer_loop();

  bool send_to(NodeId peer, const Envelope& env);
  bool send_sync(NodeId peer, const Envelope& env);
  bool enqueue_async(NodeId peer, const Envelope& env);
  /// Writes everything currently queued for `p`; returns when the queue is
  /// empty (drops what cannot be written).
  void drain_peer(PeerQueue& p);
  /// Sends `bufs` to the peer as coalesced frames over its writer-owned
  /// connection (dialing / redialing as needed). Returns envelopes dropped.
  std::size_t flush_buffers(PeerQueue& p,
                            std::vector<std::vector<std::uint8_t>>& bufs);
  /// Writes pre-built iovecs to the peer's connection with one reconnect
  /// retry (the cached connection may be stale).
  bool flush_iovecs(PeerQueue& p, const std::vector<::iovec>& iov);
  int connect_peer(NodeId peer) BD_REQUIRES(peers_mu_);

  std::vector<std::uint8_t> pool_get();
  void pool_put(std::vector<std::uint8_t> buf);

  NodeId self_;
  WireConfig wire_;

  // Written by the constructor and stop(), read by accept_loop() while it
  // blocks in accept(); atomic so the shutdown handshake (close the
  // listener, accept fails, loop exits) is race-free.
  std::atomic<int> listen_fd_{-1};
  std::uint16_t port_ = 0;

  mutable bd::Mutex peers_mu_;
  std::map<NodeId, TcpEndpoint> peers_ BD_GUARDED_BY(peers_mu_);
  /// Cached outgoing connections (sync path).
  std::map<NodeId, int> peer_fds_ BD_GUARDED_BY(peers_mu_);
  /// Async path. The map is guarded; the pointed-to queues are stable
  /// (never erased before stop) and carry their own lock.
  std::map<NodeId, std::unique_ptr<PeerQueue>> queues_
      BD_GUARDED_BY(peers_mu_);
  /// Learned return paths: sender id -> inbound socket it last spoke on.
  /// Lets the node reply to peers with no registered endpoint (e.g. the
  /// `bluedove_cli stats` scraper) over the connection they opened. The
  /// fds are owned by their reader threads, never closed through this map;
  /// writes to them happen under peers_mu_, which the owning reader also
  /// takes before unmapping (so the fd cannot be closed mid-write).
  std::map<NodeId, int> learned_fds_ BD_GUARDED_BY(peers_mu_);

  // Writer pool: queue of dirty peers + shutdown flag.
  bd::Mutex writers_mu_;
  bd::CondVar writers_cv_;
  std::deque<PeerQueue*> dirty_ BD_GUARDED_BY(writers_mu_);
  /// Set under writers_mu_ (cv discipline) but also read lock-free from
  /// flush_iovecs so a writer blocked against a slow peer gives up instead
  /// of redialing during shutdown.
  std::atomic<bool> writers_stop_{false};
  std::vector<std::thread> writer_threads_;

  // Pool of serialized-envelope buffers recycled between node thread and
  // writers (capacity is retained across reuse).
  bd::Mutex pool_mu_;
  std::vector<std::vector<std::uint8_t>> pool_ BD_GUARDED_BY(pool_mu_);

  std::thread accept_thread_;
  bd::Mutex readers_mu_;
  std::vector<std::thread> reader_threads_ BD_GUARDED_BY(readers_mu_);
  /// Open inbound sockets (for shutdown).
  std::vector<int> accepted_fds_ BD_GUARDED_BY(readers_mu_);

  std::atomic<std::uint64_t> dropped_sends_{0};

  // Wire instrumentation (registered once in the constructor, cached).
  obs::MetricsRegistry wire_metrics_;
  obs::Counter* m_envelopes_ = nullptr;   ///< envelopes put on the wire
  obs::Counter* m_frames_ = nullptr;      ///< frames put on the wire
  obs::Counter* m_bytes_ = nullptr;       ///< bytes put on the wire
  obs::Counter* m_flushes_ = nullptr;     ///< writer drain flushes (sendmsg batches)
  obs::Counter* m_queue_drops_ = nullptr; ///< envelopes dropped: queue full
  obs::Counter* m_send_drops_ = nullptr;  ///< envelopes dropped: write failed
  obs::Counter* m_connects_ = nullptr;    ///< outbound dials that succeeded
  /// Zero-copy accounting: payload bytes the receive path had to copy out
  /// of a frame instead of viewing in place. Steady state should be 0 —
  /// reader_loop hands parse_frame the refcounted frame buffer, so every
  /// payload is a view shared across the fan-out (see attr/payload.h).
  obs::Counter* m_payload_copies_ = nullptr;
  obs::Counter* m_payload_copy_bytes_ = nullptr;
  obs::LatencyHistogram* m_frame_envs_ = nullptr;   ///< envelopes per frame
  obs::LatencyHistogram* m_frame_bytes_ = nullptr;  ///< bytes per frame
  obs::Gauge* m_inbox_depth_ = nullptr;       ///< runtime.inbox_depth
  obs::Gauge* m_inbox_high_water_ = nullptr;  ///< runtime.inbox_high_water

  /// The node's event loop (task queue, timers, offload pool). Declared
  /// last: it records into wire_metrics_ and its send() routes through the
  /// wire state above.
  runtime::NodeLoop loop_;
};

}  // namespace bluedove::net
