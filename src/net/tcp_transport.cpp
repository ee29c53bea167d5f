#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
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

/// Gathers `cnt` iovecs into the socket with sendmsg(MSG_NOSIGNAL),
/// restarting after partial writes. Mutates the iovec array in place.
bool sendv_all(int fd, ::iovec* iov, std::size_t cnt) {
  constexpr std::size_t kMaxVecs = 512;  // stay under any IOV_MAX
  while (cnt > 0) {
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = cnt < kMaxVecs ? cnt : kMaxVecs;
    ssize_t n = ::sendmsg(fd, &mh, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    while (n > 0 && cnt > 0) {
      if (static_cast<std::size_t>(n) >= iov->iov_len) {
        n -= static_cast<ssize_t>(iov->iov_len);
        ++iov;
        --cnt;
      } else {
        iov->iov_base = static_cast<char*>(iov->iov_base) + n;
        iov->iov_len -= static_cast<std::size_t>(n);
        n = 0;
      }
    }
  }
  return true;
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
                 std::unique_ptr<Node> node, std::uint64_t seed,
                 WireConfig wire)
    : self_(self),
      wire_(wire),
      loop_(self, std::move(node),
            [this](NodeId to, Envelope&& env) {
              if (!send_to(to, env)) {
                dropped_sends_.fetch_add(1, std::memory_order_relaxed);
              }
            },
            seed ^ self, std::chrono::steady_clock::now(),
            runtime::MatchExecutorConfig{}.lane_capacity, &wire_metrics_) {
  if (wire_.batch < 1) wire_.batch = 1;
  if (wire_.writers < 1) wire_.writers = 1;
  if (wire_.queue_capacity == 0) wire_.queue_capacity = 1;
  m_envelopes_ = &wire_metrics_.counter("wire.envelopes_sent");
  m_frames_ = &wire_metrics_.counter("wire.frames_sent");
  m_bytes_ = &wire_metrics_.counter("wire.bytes_sent");
  m_flushes_ = &wire_metrics_.counter("wire.flushes");
  m_queue_drops_ = &wire_metrics_.counter("wire.queue_full_drops");
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
  bd::LockGuard lock(peers_mu_);
  peers_[id] = std::move(endpoint);
  auto it = peer_fds_.find(id);
  if (it != peer_fds_.end()) {
    ::close(it->second);
    peer_fds_.erase(it);
  }
  auto qit = queues_.find(id);
  if (qit != queues_.end()) {
    // The writer owns the queue's connection; flag it for redial instead of
    // closing it out from under an in-flight sendmsg.
    bd::LockGuard qlock(qit->second->mu);
    qit->second->redial = true;
  }
}

void TcpHost::start() {
  if (listen_fd_ < 0 || !loop_.start()) return;
  accept_thread_ = std::thread([this] { accept_loop(); });
  if (wire_.async()) {
    writer_threads_.reserve(static_cast<std::size_t>(wire_.writers));
    for (int i = 0; i < wire_.writers; ++i) {
      writer_threads_.emplace_back([this] { writer_loop(); });
    }
  }
}

void TcpHost::stop() {
  // From here on the node inbox refuses tasks and the node thread exits.
  if (!loop_.request_stop()) return;
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    bd::LockGuard lock(writers_mu_);
    writers_stop_.store(true);
  }
  writers_cv_.notify_all();
  {
    // A writer can be blocked inside sendmsg against a peer that stopped
    // reading (full socket buffer). shutdown() — unlike close() — makes
    // that syscall return, so the join below cannot hang. Also unblocks
    // reader threads and any sync sender stuck on a learned fd.
    bd::LockGuard lock(peers_mu_);
    for (auto& [id, q] : queues_) {
      const int fd = q->fd.load();  // seq_cst: pairs with the writer's dial
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
    for (auto& [id, fd] : learned_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  {
    bd::LockGuard lock(readers_mu_);
    for (int fd : accepted_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& t : writer_threads_) {
    if (t.joinable()) t.join();
  }
  writer_threads_.clear();
  {
    bd::LockGuard lock(peers_mu_);
    for (auto& [id, fd] : peer_fds_) ::close(fd);
    peer_fds_.clear();
    for (auto& [id, q] : queues_) {
      bd::LockGuard qlock(q->mu);
      const int fd = q->fd.exchange(-1);
      if (fd >= 0) ::close(fd);
      q->pending.clear();  // undelivered at shutdown; contract allows it
    }
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
  // the offload pool, then the inbox accounting audit.
  loop_.join();
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

int TcpHost::connect_peer(NodeId peer) {
  // BD_REQUIRES(peers_mu_): the annotation replaces the old "held by
  // caller" comment and Clang now proves it at every call site.
  auto fd_it = peer_fds_.find(peer);
  if (fd_it != peer_fds_.end()) return fd_it->second;
  auto ep_it = peers_.find(peer);
  if (ep_it == peers_.end()) return -1;
  const int fd = connect_endpoint(ep_it->second);
  if (fd >= 0) {
    peer_fds_[peer] = fd;
    m_connects_->inc();
  }
  return fd;
}

bool TcpHost::send_to(NodeId peer, const Envelope& env) {
  return wire_.async() ? enqueue_async(peer, env) : send_sync(peer, env);
}

// ---------------------------------------------------------------------------
// Synchronous path (wire batch == 1): one frame per send() call
// ---------------------------------------------------------------------------

bool TcpHost::send_sync(NodeId peer, const Envelope& env) {
  // Serialize exactly once into a reusable frame buffer (length prefix
  // patched in place, no second copy), then write it wherever it fits.
  thread_local serde::Writer w;
  wire::build_frame(w, self_, env);
  bd::LockGuard lock(peers_mu_);
  // Dialable endpoint first, with one retry on a fresh connection: a cached
  // fd may be a stale connection the peer already closed.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const int fd = connect_peer(peer);
    if (fd < 0) break;  // no endpoint or dial failed: learned-path fallback
    if (wire::write_all(fd, w.data(), w.size())) {
      m_envelopes_->inc();
      m_frames_->inc();
      m_bytes_->inc(w.size());
      return true;
    }
    ::close(fd);
    peer_fds_.erase(peer);
  }
  // Learned inbound connection (peers with no registered endpoint). The fd
  // belongs to its reader thread, which takes peers_mu_ before unmapping,
  // so it cannot be closed while we hold the lock; a failed write only
  // drops the mapping.
  auto it = learned_fds_.find(peer);
  if (it == learned_fds_.end()) return false;
  if (wire::write_all(it->second, w.data(), w.size())) {
    m_envelopes_->inc();
    m_frames_->inc();
    m_bytes_->inc(w.size());
    return true;
  }
  learned_fds_.erase(it);
  return false;
}

// ---------------------------------------------------------------------------
// Asynchronous path (wire batch > 1): bounded queues + writer pool
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> TcpHost::pool_get() {
  bd::LockGuard lock(pool_mu_);
  if (pool_.empty()) return {};
  std::vector<std::uint8_t> buf = std::move(pool_.back());
  pool_.pop_back();
  return buf;
}

void TcpHost::pool_put(std::vector<std::uint8_t> buf) {
  buf.clear();
  bd::LockGuard lock(pool_mu_);
  if (pool_.size() < 2 * wire_.queue_capacity) pool_.push_back(std::move(buf));
}

bool TcpHost::enqueue_async(NodeId peer, const Envelope& env) {
  PeerQueue* q = nullptr;
  {
    bd::LockGuard lock(peers_mu_);
    // A peer that is neither dialable nor learned can never be flushed:
    // drop at enqueue, same contract as the synchronous path.
    if (peers_.find(peer) == peers_.end() &&
        learned_fds_.find(peer) == learned_fds_.end()) {
      return false;
    }
    auto it = queues_.find(peer);
    if (it == queues_.end()) {
      it = queues_.emplace(peer, std::make_unique<PeerQueue>(peer)).first;
      const std::string prefix = "wire.peer" + std::to_string(peer);
      it->second->depth = &wire_metrics_.gauge(prefix + ".queue_depth");
      it->second->high_water =
          &wire_metrics_.gauge(prefix + ".queue_high_water");
    }
    q = it->second.get();
  }
  // Serialize once, into a pooled buffer the writer hands back after the
  // flush.
  serde::Writer w;
  w.adopt(pool_get());
  wire::build_body(w, env);
  std::vector<std::uint8_t> buf = w.take();
  bool make_dirty = false;
  {
    bd::LockGuard lock(q->mu);
    if (q->pending.size() >= wire_.queue_capacity) {
      m_queue_drops_->inc();
      // (buf returns to the pool below)
    } else {
      q->pending.push_back(std::move(buf));
      const auto depth = static_cast<double>(q->pending.size());
      q->depth->set(depth);
      q->high_water->record_max(depth);
      if (!q->draining) {
        q->draining = true;
        make_dirty = true;
      }
    }
  }
  if (!buf.empty()) {  // not consumed: the bounded queue rejected it
    pool_put(std::move(buf));
    return false;
  }
  if (make_dirty) {
    {
      bd::LockGuard lock(writers_mu_);
      dirty_.push_back(q);
    }
    writers_cv_.notify_one();
  }
  return true;
}

void TcpHost::writer_loop() {
  obs::Recorder::bind_node(self_);
  obs::Recorder::label_thread("node" + std::to_string(self_) +
                              ".wire.writer");
  while (true) {
    PeerQueue* q = nullptr;
    {
      bd::UniqueLock lock(writers_mu_);
      while (!writers_stop_.load(std::memory_order_acquire) &&
             dirty_.empty()) {
        writers_cv_.wait(lock);
      }
      if (dirty_.empty()) return;  // stopping and nothing left to drain
      q = dirty_.front();
      dirty_.pop_front();
    }
    if (wire_.flush_interval > 0.0) {
      // Linger briefly when the batch is not full yet: trading a bounded
      // delay for fewer, fuller frames.
      bool partial;
      {
        bd::LockGuard lock(q->mu);
        partial = q->pending.size() < static_cast<std::size_t>(wire_.batch);
      }
      if (partial) {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(wire_.flush_interval));
        bd::UniqueLock lock(writers_mu_);
        while (!writers_stop_.load() &&
               writers_cv_.wait_until(lock, deadline) !=
                   std::cv_status::timeout) {
        }
      }
    }
    drain_peer(*q);
  }
}

void TcpHost::drain_peer(PeerQueue& q) {
  while (true) {
    std::vector<std::vector<std::uint8_t>> bufs;
    {
      bd::LockGuard lock(q.mu);
      if (q.pending.empty()) {
        // Only here does the peer stop being "dirty": any enqueue that
        // happened while we were flushing is either in `pending` (we loop)
        // or will re-queue the peer (draining is false again).
        q.draining = false;
        q.depth->set(0.0);
        return;
      }
      bufs.assign(std::make_move_iterator(q.pending.begin()),
                  std::make_move_iterator(q.pending.end()));
      q.pending.clear();
      q.depth->set(0.0);
    }
    std::size_t dropped = 0;
    {
      obs::ScopedSpan flush_span(rec::flush(), 0, bufs.size());
      dropped = flush_buffers(q, bufs);
    }
    if (dropped > 0) {
      dropped_sends_.fetch_add(dropped, std::memory_order_relaxed);
      m_send_drops_->inc(dropped);
    }
    for (std::vector<std::uint8_t>& b : bufs) pool_put(std::move(b));
  }
}

std::size_t TcpHost::flush_buffers(
    PeerQueue& q, std::vector<std::vector<std::uint8_t>>& bufs) {
  // Group the drained envelopes into frames of up to `batch` envelopes
  // (bounded by the max frame size), then gather headers + bodies into one
  // sendmsg per flush.
  struct Group {
    std::size_t begin = 0, end = 0;
    std::uint32_t bytes = 0;
  };
  constexpr std::uint32_t kMaxBody =
      wire::kMaxFrame - static_cast<std::uint32_t>(wire::kFrameOverhead);
  std::vector<Group> groups;
  for (std::size_t i = 0; i < bufs.size();) {
    Group g{i, i, 0};
    while (g.end < bufs.size() &&
           g.end - g.begin < static_cast<std::size_t>(wire_.batch) &&
           (g.end == g.begin ||
            g.bytes + bufs[g.end].size() <= kMaxBody)) {
      g.bytes += static_cast<std::uint32_t>(bufs[g.end].size());
      ++g.end;
    }
    groups.push_back(g);
    i = g.end;
  }
  std::vector<std::array<std::uint8_t, 8>> headers(groups.size());
  std::vector<::iovec> iov;
  iov.reserve(groups.size() + bufs.size());
  std::uint64_t total_bytes = 0;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const Group& g = groups[gi];
    wire::fill_header(headers[gi].data(), g.bytes, self_);
    iov.push_back({headers[gi].data(), 8});
    for (std::size_t j = g.begin; j < g.end; ++j) {
      iov.push_back({bufs[j].data(), bufs[j].size()});
    }
    total_bytes += 8 + g.bytes;
  }
  if (!flush_iovecs(q, iov)) return bufs.size();
  m_flushes_->inc();
  m_envelopes_->inc(bufs.size());
  m_frames_->inc(groups.size());
  m_bytes_->inc(total_bytes);
  for (const Group& g : groups) {
    m_frame_envs_->record(static_cast<double>(g.end - g.begin));
    m_frame_bytes_->record(static_cast<double>(8 + g.bytes));
  }
  return 0;
}

bool TcpHost::flush_iovecs(PeerQueue& q, const std::vector<::iovec>& iov) {
  // Writer-owned connection with one retry on a fresh dial; a failed write
  // resends the whole flush from the start on the new connection (the old
  // one carries at most a truncated frame, which the receiver discards).
  for (int attempt = 0; attempt < 2; ++attempt) {
    // Shutting down: don't redial a peer we failed to reach; the drain
    // loop counts the remainder as dropped and exits.
    if (attempt > 0 && writers_stop_.load(std::memory_order_relaxed)) break;
    {
      bd::LockGuard lock(q.mu);
      if (q.redial) {
        const int stale = q.fd.exchange(-1);
        if (stale >= 0) ::close(stale);
      }
      q.redial = false;
    }
    int fd = q.fd.load(std::memory_order_relaxed);
    if (fd < 0) {
      TcpEndpoint ep;
      bool have_endpoint = false;
      {
        bd::LockGuard lock(peers_mu_);
        auto it = peers_.find(q.id);
        if (it != peers_.end()) {
          ep = it->second;
          have_endpoint = true;
        }
      }
      if (!have_endpoint) break;  // not dialable: learned-path fallback
      fd = connect_endpoint(ep);  // off the node thread, unlocked
      if (fd < 0) break;
      q.fd.store(fd);  // seq_cst: publish before checking for shutdown
      if (writers_stop_.load()) {
        // stop() may have finished its shutdown scan before this fd was
        // published; blocking in sendmsg on it could hang the join. The
        // seq_cst store/load pair guarantees we see the flag in that case.
        q.fd.store(-1);
        ::close(fd);
        break;
      }
      m_connects_->inc();
    }
    std::vector<::iovec> scratch = iov;  // sendv_all consumes in place
    if (sendv_all(fd, scratch.data(), scratch.size())) return true;
    q.fd.store(-1, std::memory_order_relaxed);
    ::close(fd);
  }
  // Learned inbound connection fallback, written under peers_mu_ so the
  // owning reader cannot unmap-and-close the fd mid-write.
  bd::LockGuard lock(peers_mu_);
  auto it = learned_fds_.find(q.id);
  if (it == learned_fds_.end()) return false;
  std::vector<::iovec> scratch = iov;
  if (sendv_all(it->second, scratch.data(), scratch.size())) return true;
  learned_fds_.erase(it);
  return false;
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
