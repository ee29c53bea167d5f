#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/logging.h"
#include "net/wire.h"
#include "obs/recorder.h"

namespace bluedove::net {

namespace {

// Flight-recorder event names (interned once per process).
namespace rec {
std::uint16_t frame_in() {
  static const std::uint16_t id = obs::Recorder::intern("wire.frame_in");
  return id;
}
std::uint16_t flush() {
  static const std::uint16_t id = obs::Recorder::intern("wire.flush");
  return id;
}
}  // namespace rec

int connect_endpoint(const TcpEndpoint& endpoint) {
  // SOCK_CLOEXEC everywhere a socket is minted: a fork/exec from any other
  // thread (recorder dump helpers, tests spawning tools) must not leak
  // wire fds into the child.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

}  // namespace

std::size_t raise_fd_limit(std::size_t want) {
  ::rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 0;
  const rlim_t target = rl.rlim_max == RLIM_INFINITY
                            ? static_cast<rlim_t>(want)
                            : std::min(static_cast<rlim_t>(want), rl.rlim_max);
  if (target > rl.rlim_cur) {
    ::rlimit raised = rl;
    raised.rlim_cur = target;
    if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) rl = raised;
  }
  return static_cast<std::size_t>(rl.rlim_cur);
}

// ---------------------------------------------------------------------------
// TcpHost
// ---------------------------------------------------------------------------

TcpHost::TcpHost(NodeId self, std::uint16_t listen_port,
                 std::unique_ptr<Node> node, std::uint64_t seed)
    : self_(self),
      loop_(self, std::move(node),
            [this](NodeId to, Envelope&& env) { send_to(to, env); },
            seed ^ self, std::chrono::steady_clock::now(),
            runtime::MatchExecutorConfig{}.lane_capacity, &wire_metrics_,
            [this] { flush(); }) {
  m_envelopes_ = &wire_metrics_.counter("wire.envelopes_sent");
  m_frames_ = &wire_metrics_.counter("wire.frames_sent");
  m_bytes_ = &wire_metrics_.counter("wire.bytes_sent");
  m_flushes_ = &wire_metrics_.counter("wire.flushes");
  m_send_drops_ = &wire_metrics_.counter("wire.send_error_drops");
  m_connects_ = &wire_metrics_.counter("wire.connects");
  m_payload_copies_ = &wire_metrics_.counter("wire.payload_copies");
  m_payload_copy_bytes_ =
      &wire_metrics_.counter("wire.payload_bytes_copied");
  m_frame_envs_ = &wire_metrics_.histogram("wire.frame_envelopes");
  m_frame_bytes_ = &wire_metrics_.histogram("wire.frame_bytes");
  m_inbox_depth_ = &wire_metrics_.gauge("runtime.inbox_depth");
  m_inbox_high_water_ = &wire_metrics_.gauge("runtime.inbox_high_water");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(listen_port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  ::listen(listen_fd_, 64);
}

TcpHost::~TcpHost() { stop(); }

void TcpHost::add_peer(NodeId id, TcpEndpoint endpoint) {
  {
    bd::LockGuard lock(peers_mu_);
    peers_[id] = std::move(endpoint);
  }
  // The node thread owns the connection: drop it there, and the next flush
  // to the peer dials the new endpoint. Refused before start(), when there
  // is no connection yet.
  post([this, id] {
    const auto it = outbound_.find(id);
    if (it != outbound_.end() && it->second.fd >= 0) {
      ::close(it->second.fd);
      it->second.fd = -1;
    }
  });
}

void TcpHost::start() {
  if (listen_fd_ < 0 || !loop_.start()) return;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void TcpHost::stop() {
  // From here on the node inbox refuses tasks and the node thread exits.
  if (!loop_.request_stop()) return;
  {
    // The node thread can be blocked in send() against a peer that stopped
    // reading (full socket buffer). shutdown() — unlike close() — makes that
    // call return; later writes see closing_ and fail fast.
    bd::LockGuard lock(write_mu_);
    closing_ = true;
    if (writing_fd_ >= 0) ::shutdown(writing_fd_, SHUT_RDWR);
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    bd::LockGuard lock(readers_mu_);
    for (int fd : accepted_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  {
    std::vector<std::thread> readers;
    {
      bd::LockGuard lock(readers_mu_);
      readers.swap(reader_threads_);
    }
    for (std::thread& t : readers) {
      if (t.joinable()) t.join();
    }
  }
  // Last, the node thread (Node::stop ran on it as its loop exited), then
  // the offload pool, then the inbox accounting audit. Only then are its
  // connections ours to close; unflushed sends are dropped, as the
  // contract allows at shutdown.
  loop_.join();
  for (auto& [id, out] : outbound_) {
    if (out.fd >= 0) ::close(out.fd);
  }
  outbound_.clear();
}

const obs::MetricsRegistry& TcpHost::wire_metrics() const {
  const QueueStats& s = loop_.inbox_stats();
  m_inbox_depth_->set(
      static_cast<double>(s.depth.load(std::memory_order_relaxed)));
  m_inbox_high_water_->set(
      static_cast<double>(s.high_water.load(std::memory_order_relaxed)));
  return wire_metrics_;
}

void TcpHost::accept_loop() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) return;  // listener closed: shutting down
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    bd::LockGuard lock(readers_mu_);
    accepted_fds_.push_back(fd);
    reader_threads_.emplace_back([this, fd] { reader_loop(fd); });
  }
}

void TcpHost::reader_loop(int fd) {
  // Wire threads bind to the hosted node so merged multi-process traces
  // attribute socket work to the right pid (node id), on a labelled track.
  obs::Recorder::bind_node(self_);
  obs::Recorder::label_thread("node" + std::to_string(self_) +
                              ".wire.reader");
  while (true) {
    std::uint8_t len_bytes[4];
    if (!wire::read_all(fd, len_bytes, 4)) break;
    const std::uint32_t len = wire::read_frame_len(len_bytes);
    if (len < 4 || len > wire::kMaxFrame) break;  // malformed frame
    obs::Recorder::instant(rec::frame_in(), 0, len);
    // One refcounted buffer per frame: parsed payloads are zero-copy views
    // into it, and the buffer lives exactly as long as any envelope (or
    // any Delivery fanned out from one) still references its bytes.
    auto buf = std::make_shared<std::vector<std::uint8_t>>(len);
    if (!wire::read_all(fd, buf->data(), len)) break;
    wire::ParsedFrame frame = wire::parse_frame(buf->data(), buf->size(), buf);
    if (!frame.ok) break;
    if (frame.payload_copies != 0) {
      m_payload_copies_->inc(frame.payload_copies);
      m_payload_copy_bytes_->inc(frame.payload_bytes_copied);
    }
    if (frame.from != kInvalidNode) {
      // Learn the return path so replies reach peers that have no
      // registered endpoint (admin scrapers, NAT'd clients).
      bd::LockGuard lock(peers_mu_);
      learned_fds_[frame.from] = fd;
    }
    // One task per frame: a coalesced EnvelopeBatch frame costs one queue
    // round-trip however many envelopes it carries.
    loop_.post([node = loop_.node(), from = frame.from,
                envs = std::move(frame.envelopes)]() mutable {
      for (Envelope& env : envs) node->on_receive(from, std::move(env));
    });
  }
  {
    bd::LockGuard lock(peers_mu_);
    for (auto it = learned_fds_.begin(); it != learned_fds_.end();) {
      if (it->second == fd) {
        it = learned_fds_.erase(it);
      } else {
        ++it;
      }
    }
  }
  {
    bd::LockGuard lock(readers_mu_);
    std::erase(accepted_fds_, fd);
  }
  ::close(fd);
}

void TcpHost::inject(NodeId from, Envelope&& env) {
  loop_.post([node = loop_.node(), from, env = std::move(env)]() mutable {
    node->on_receive(from, std::move(env));
  });
}

bool TcpHost::post(std::function<void()> fn) {
  return loop_.post(std::move(fn));
}

// ---------------------------------------------------------------------------
// Outbound path: per-peer frames built by send(), written by flush()
// ---------------------------------------------------------------------------

void TcpHost::send_to(NodeId peer, const Envelope& env) {
  BD_ASSERT_NODE_THREAD(&loop_);
  Outbound& out = outbound_.try_emplace(peer, self_).first->second;
  if (out.frames.empty()) dirty_.push_back(peer);
  const wire::FrameStats split = out.frames.append(env);
  if (split.envelopes != 0) out.closed.push_back(split);
}

void TcpHost::flush() {
  for (const NodeId peer : dirty_) {
    Outbound& out = outbound_.at(peer);
    out.closed.push_back(out.frames.close());
    std::uint64_t envelopes = 0;
    for (const wire::FrameStats& frame : out.closed) {
      envelopes += frame.envelopes;
    }
    obs::ScopedSpan flush_span(rec::flush(), 0, envelopes);
    if (write_peer(peer, out)) {
      m_flushes_->inc();
      m_envelopes_->inc(envelopes);
      m_frames_->inc(out.closed.size());
      m_bytes_->inc(out.frames.size());
      for (const wire::FrameStats& frame : out.closed) {
        m_frame_envs_->record(static_cast<double>(frame.envelopes));
        m_frame_bytes_->record(static_cast<double>(frame.bytes));
      }
    } else {
      dropped_sends_.fetch_add(envelopes, std::memory_order_relaxed);
      m_send_drops_->inc(envelopes);
    }
    out.frames.clear();
    out.closed.clear();
  }
  dirty_.clear();
}

bool TcpHost::write_peer(NodeId peer, Outbound& out) {
  // Dialable endpoint first, with one retry on a fresh connection: a cached
  // connection may be stale (the peer restarted). The retry resends the
  // whole flush; the old connection carries at most a truncated frame,
  // which the receiver discards.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const int fd = dial(peer, out);
    if (fd < 0) break;  // no endpoint or dial failed: learned-path fallback
    if (write_frames(fd, out.frames)) return true;
    ::close(fd);
    out.fd = -1;
  }
  // Learned inbound connection (a peer with no registered endpoint). Its
  // reader thread owns the fd and unmaps it under peers_mu_ before closing
  // it, so a duplicate taken under the lock keeps the socket open for the
  // write without holding the lock across it.
  int fd = -1;
  {
    bd::LockGuard lock(peers_mu_);
    const auto it = learned_fds_.find(peer);
    if (it == learned_fds_.end()) return false;
    fd = ::fcntl(it->second, F_DUPFD_CLOEXEC, 0);
  }
  if (fd < 0) return false;
  const bool ok = write_frames(fd, out.frames);
  ::close(fd);
  return ok;
}

int TcpHost::dial(NodeId peer, Outbound& out) {
  if (out.fd >= 0) return out.fd;
  TcpEndpoint endpoint;
  {
    bd::LockGuard lock(peers_mu_);
    const auto it = peers_.find(peer);
    if (it == peers_.end()) return -1;
    endpoint = it->second;
  }
  {
    bd::LockGuard lock(write_mu_);
    if (closing_) return -1;  // no new connections while stopping
  }
  out.fd = connect_endpoint(endpoint);
  if (out.fd >= 0) m_connects_->inc();
  return out.fd;
}

bool TcpHost::write_frames(int fd, const wire::FrameBuilder& frames) {
  {
    bd::LockGuard lock(write_mu_);
    if (closing_) return false;
    writing_fd_ = fd;
  }
  const bool ok = wire::write_all(fd, frames.data(), frames.size());
  bd::LockGuard lock(write_mu_);
  writing_fd_ = -1;
  return ok;
}

// ---------------------------------------------------------------------------
// One-shot client helpers
// ---------------------------------------------------------------------------

bool TcpHost::send_once(const TcpEndpoint& endpoint, const Envelope& env) {
  const int fd = connect_endpoint(endpoint);
  if (fd < 0) return false;
  const bool ok = wire::send_frame(fd, kInvalidNode, env);
  ::close(fd);
  return ok;
}

bool TcpHost::request_reply(const TcpEndpoint& endpoint, NodeId self,
                            const Envelope& req, Envelope* resp,
                            double timeout_sec) {
  const int fd = connect_endpoint(endpoint);
  if (fd < 0) return false;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_sec);
  tv.tv_usec = static_cast<suseconds_t>(
      (timeout_sec - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  bool ok = wire::send_frame(fd, self, req);
  std::uint8_t len_bytes[4];
  std::uint32_t len = 0;
  ok = ok && wire::read_all(fd, len_bytes, 4);
  if (ok) {
    len = wire::read_frame_len(len_bytes);
    ok = len >= 4 && len <= wire::kMaxFrame;
  }
  std::vector<std::uint8_t> buf(len);
  ok = ok && wire::read_all(fd, buf.data(), len);
  ::close(fd);
  if (!ok) return false;
  wire::ParsedFrame frame = wire::parse_frame(buf.data(), buf.size());
  if (!frame.ok) return false;
  if (resp != nullptr) *resp = std::move(frame.envelopes.front());
  return true;
}

}  // namespace bluedove::net
