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
// Outbound path. There is one, and the node thread owns it. send() appends
// the serialized envelope to the destination peer's outbound frames: a
// multi-envelope frame per peer, capped at wire::kMaxFrame, a new frame when
// the open one would pass the cap. The NodeLoop then calls flush() after
// Node::start, after every task and after every timer callback, which
// writes each peer that was sent to with one sendmsg() of all its frames.
// So a message never waits past the end of the handler that sent it; a
// handler that sends once produces exactly wire::build_frame's bytes, and a
// matcher completion that fans out hundreds of deliveries to one dispatcher
// produces one syscall and one reader task at the far end.
//
// The flush is a blocking write on the node thread. It dials a peer with no
// connection (one retry on a fresh dial when the cached connection proves
// stale), then falls back to the inbound connection the peer last spoke on
// (its learned return path). Transport semantics match the NodeContext
// contract: sends are unreliable-by-contract, an unreachable peer or a
// failed write drops the flush's envelopes, and failure detection happens
// at the protocol layer. Drops are counted in dropped_sends() and in
// wire.send_error_drops. stop() unblocks a write stuck against a peer that
// stopped reading.
//
// Code outside the node (a test, a bench, a tool) must not call the
// node's context; it hands a closure to post(), whose sends are flushed when
// it returns.

#include <sys/uio.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/affinity.h"
#include "common/serde.h"
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

class TcpHost {
 public:
  /// Binds the listening socket immediately (so port 0 resolves to a real
  /// ephemeral port readable via port()); call start() to begin serving.
  TcpHost(NodeId self, std::uint16_t listen_port, std::unique_ptr<Node> node,
          std::uint64_t seed = 42);
  ~TcpHost();

  TcpHost(const TcpHost&) = delete;
  TcpHost& operator=(const TcpHost&) = delete;

  NodeId id() const { return self_; }
  std::uint16_t port() const { return port_; }

  /// Registers/updates where a peer node can be reached. May be called
  /// before or after start(); a changed endpoint is redialled on the next
  /// flush to that peer.
  void add_peer(NodeId id, TcpEndpoint endpoint);

  /// Starts the accept loop and the node thread (which calls Node::start).
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

  /// Runs `fn` on the node thread, from any thread: how code outside the
  /// node sends through its context. The sends `fn` makes are flushed when
  /// it returns. Refused (false) before start() and once stop() begins.
  bool post(std::function<void()> fn);

  /// Host-level instrumentation: bytes/frames/envelopes sent, flushes,
  /// drops, frame envelope-count and byte histograms, the offload pool's
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
  /// One outbound frame: an 8-byte header (length + sender, filled at
  /// flush time) followed by serialized envelopes.
  struct Frame {
    std::vector<std::uint8_t> bytes;
    std::uint32_t envelopes = 0;
  };
  /// Per-peer outbound state, owned by the node thread.
  struct Outbound {
    /// Dialled connection, -1 when there is none.
    int fd = -1;
    /// Frames not yet written; the last one is open for more envelopes.
    std::vector<Frame> frames;
  };

  void accept_loop();
  void reader_loop(int fd);

  BD_NODE_THREAD void send_to(NodeId peer, const Envelope& env);
  /// Writes every peer sent to since the last flush.
  BD_NODE_THREAD void flush();
  /// Writes `out.frames` to the peer: dialled connection with one retry,
  /// then the learned return path. False when the frames were dropped.
  BD_NODE_THREAD bool write_peer(NodeId peer, Outbound& out);
  /// The dialled connection to `peer`, dialling when there is none; -1 when
  /// the peer has no endpoint, the dial fails or the host is stopping.
  BD_NODE_THREAD int dial(NodeId peer, Outbound& out);
  /// One sendmsg() of all `frames` to `fd`, published to stop() so it can
  /// unblock the write. False on failure or once stop() has begun.
  BD_NODE_THREAD bool write_frames(int fd, const std::vector<Frame>& frames);

  NodeId self_;

  // Written by the constructor and stop(), read by accept_loop() while it
  // blocks in accept(); atomic so the shutdown handshake (close the
  // listener, accept fails, loop exits) is race-free.
  std::atomic<int> listen_fd_{-1};
  std::uint16_t port_ = 0;

  mutable bd::Mutex peers_mu_;
  std::map<NodeId, TcpEndpoint> peers_ BD_GUARDED_BY(peers_mu_);
  /// Learned return paths: sender id -> inbound socket it last spoke on.
  /// Lets the node reply to peers with no registered endpoint (e.g. the
  /// `bluedove_cli stats` scraper) over the connection they opened. The
  /// fds are owned by their reader threads, which unmap them under
  /// peers_mu_ before closing; the node thread writes on a duplicate taken
  /// under the lock, so it holds no lock across the write.
  std::map<NodeId, int> learned_fds_ BD_GUARDED_BY(peers_mu_);

  /// Node-thread outbound state: per-peer frames and connections, the peers
  /// sent to since the last flush, and reused scratch. stop() closes the
  /// connections only after the node thread has joined.
  std::map<NodeId, Outbound> outbound_;
  std::vector<NodeId> dirty_;
  serde::Writer body_;
  std::vector<::iovec> iov_;

  /// The fd the node thread is writing to (-1 when none) and whether stop()
  /// has begun. The node thread publishes the fd before the write and
  /// closes it only after clearing it; stop() sets `closing_` and shuts the
  /// published fd down, all under write_mu_, which nobody holds across a
  /// write. So a write either sees `closing_` and fails fast, or is
  /// unblocked by the shutdown.
  bd::Mutex write_mu_;
  int writing_fd_ BD_GUARDED_BY(write_mu_) = -1;
  bool closing_ BD_GUARDED_BY(write_mu_) = false;

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
  obs::Counter* m_flushes_ = nullptr;     ///< per-peer flushes (sendmsg calls)
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
