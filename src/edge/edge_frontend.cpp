#include "edge/edge_frontend.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/logging.h"
#include "net/wire.h"
#include "obs/recorder.h"

namespace bluedove::edge {

namespace {

/// Edge-minted subscription/message ids carry this bit so they can never
/// collide with ids chosen by direct (TcpClient) clients of the same
/// cluster, which count up from 1.
constexpr std::uint64_t kEdgeIdBit = 1ull << 62;

constexpr std::size_t kNoOpenFrame = static_cast<std::size_t>(-1);

double mono_seconds() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

}  // namespace

// --------------------------------------------------------------------------
// Internal structures
// --------------------------------------------------------------------------

/// One client connection: the per-socket state machine. Owned by exactly
/// one reactor at a time (migration moves the whole object), so no field
/// needs a lock.
struct EdgeFrontend::Conn {
  int fd = -1;
  Session* session = nullptr;

  // Framed read assembly: 4 length bytes, then the body read into a fresh
  // refcounted buffer so parse_frame() yields zero-copy payload views that
  // keep the frame alive across the fan-out / injection into the node.
  std::uint8_t lenbuf[4];
  bool in_body = false;
  std::uint32_t len = 0;
  std::uint32_t got = 0;
  std::shared_ptr<std::vector<std::uint8_t>> body;

  // Bounded write queue: one contiguous buffer of framed bytes. Bytes in
  // [woff, size) are unsent; [open_header, size) is the still-open frame
  // whose length prefix is patched when the frame closes.
  std::vector<std::uint8_t> wbuf;
  std::size_t woff = 0;
  std::size_t open_header = kNoOpenFrame;
  int open_envs = 0;
  bool want_write = false;  ///< EPOLLOUT currently armed
  bool dirty = false;       ///< queued output since the last flush pass
  bool counted = false;     ///< already in conn_count_ (survives migration)

  std::size_t unsent() const { return wbuf.size() - woff; }
};

/// A client session: outlives its connection, owns the delivery sequence
/// and the bounded replay ring. Owned by the reactor at index
/// (id % reactors), which is also the only thread that touches it.
struct EdgeFrontend::Session {
  std::uint64_t id = 0;
  std::uint64_t next_seq = 1;  ///< sequence the next delivery will carry
  std::uint64_t acked = 0;     ///< cumulative client ack
  std::deque<EdgeEvent> ring;  ///< unacked deliveries, seq ascending
  Conn* conn = nullptr;        ///< nullptr while detached
  double detached_since = 0.0;
  /// Client-chosen subscription ids <-> the edge-global ids the cluster
  /// sees (rewritten on the way in so concurrent clients cannot collide).
  std::unordered_map<std::uint64_t, std::uint64_t> client_to_global;
  std::unordered_map<std::uint64_t, std::uint64_t> global_to_client;
  std::unordered_map<std::uint64_t, Subscription> subs_by_global;
};

/// Cross-thread work handed to a reactor (acceptor: new fds; node thread:
/// deliveries; other reactors: connection migration on resume).
struct EdgeFrontend::Task {
  enum class Kind { kNewConn, kDeliver, kAdopt };
  Kind kind = Kind::kNewConn;
  int fd = -1;                        // kNewConn
  Delivery delivery;                  // kDeliver
  double enqueued_at = 0.0;           // kDeliver
  std::unique_ptr<Conn> conn;         // kAdopt
  EdgeHello hello;                    // kAdopt
  std::vector<Envelope> rest;         // kAdopt: envelopes after the hello
};

struct EdgeFrontend::Reactor {
  int index = 0;
  int epfd = -1;
  int evfd = -1;
  std::thread thread;

  bd::Mutex mu;
  /// Cross-thread inbox, drained on eventfd wake. The only shared state in
  /// a Reactor: everything below is owned by the reactor thread.
  std::deque<Task> tasks BD_GUARDED_BY(mu);

  std::unordered_map<int, std::unique_ptr<Conn>> conns;
  std::unordered_map<std::uint64_t, std::unique_ptr<Session>> sessions;
  std::uint64_t next_ordinal = 1;  ///< minted ids: ordinal * R + index
  std::vector<int> dirty;          ///< fds with queued output this wake
  serde::Writer scratch;           ///< reused envelope-body serializer
  double next_reap = 0.0;
  obs::Gauge* conns_gauge = nullptr;
};

// --------------------------------------------------------------------------
// Setup / teardown
// --------------------------------------------------------------------------

EdgeFrontend::EdgeFrontend(EdgeConfig config, NodeId node, IngressFn ingress)
    : config_(std::move(config)), node_(node), ingress_(std::move(ingress)) {
  if (config_.reactors < 1) config_.reactors = 1;
  if (config_.fanout_batch < 1) config_.fanout_batch = 1;

  m_accepts_ = &metrics_.counter("edge.accepts");
  m_accept_rejects_ = &metrics_.counter("edge.accept_rejects");
  m_disconnects_ = &metrics_.counter("edge.disconnects");
  m_evictions_ = &metrics_.counter("edge.evictions");
  m_malformed_ = &metrics_.counter("edge.malformed");
  m_sessions_created_ = &metrics_.counter("edge.sessions_created");
  m_sessions_resumed_ = &metrics_.counter("edge.sessions_resumed");
  m_sessions_reaped_ = &metrics_.counter("edge.sessions_reaped");
  m_subscribes_ = &metrics_.counter("edge.subscribes");
  m_unsubscribes_ = &metrics_.counter("edge.unsubscribes");
  m_publishes_ = &metrics_.counter("edge.publishes");
  m_acks_ = &metrics_.counter("edge.acks");
  m_deliveries_ = &metrics_.counter("edge.deliveries");
  m_deliveries_orphaned_ = &metrics_.counter("edge.deliveries_orphaned");
  m_replay_hits_ = &metrics_.counter("edge.replay_hits");
  m_replay_gaps_ = &metrics_.counter("edge.replay_gaps");
  m_replay_overflow_ = &metrics_.counter("edge.replay_overflow");
  m_frames_out_ = &metrics_.counter("edge.frames_out");
  m_bytes_out_ = &metrics_.counter("edge.bytes_out");
  m_conns_ = &metrics_.gauge("edge.connections");
  m_sessions_gauge_ = &metrics_.gauge("edge.sessions");
  m_queue_high_water_ = &metrics_.gauge("edge.queue_high_water");
  m_fanout_batch_ = &metrics_.histogram("edge.fanout_batch");
  m_delivery_latency_ = &metrics_.histogram("edge.delivery_latency");

  // Bind immediately so port 0 resolves before start() (TcpHost idiom).
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    BD_WARN("edge: socket() failed: ", std::strerror(errno));
    return;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  }
  if (::bind(fd, reinterpret_cast<::sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, config_.listen_backlog) != 0) {
    BD_WARN("edge: bind/listen on port ", config_.port,
            " failed: ", std::strerror(errno));
    ::close(fd);
    return;
  }
  ::socklen_t alen = sizeof addr;
  ::getsockname(fd, reinterpret_cast<::sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);
  listen_fd_.store(fd);
}

EdgeFrontend::~EdgeFrontend() { stop(); }

void EdgeFrontend::start() {
  if (started_ || listen_fd_.load() < 0) return;
  started_ = true;
  for (int i = 0; i < config_.reactors; ++i) {
    auto r = std::make_unique<Reactor>();
    r->index = i;
    r->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    r->evfd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    r->conns_gauge = &metrics_.gauge("edge.reactor" + std::to_string(i) +
                                     ".connections");
    ::epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = r->evfd;
    ::epoll_ctl(r->epfd, EPOLL_CTL_ADD, r->evfd, &ev);
    reactors_.push_back(std::move(r));
  }
  for (auto& r : reactors_) {
    Reactor* rp = r.get();
    r->thread = std::thread([this, rp] { reactor_loop(*rp); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void EdgeFrontend::stop() {
  if (!started_) {
    const int fd = listen_fd_.exchange(-1);
    if (fd >= 0) ::close(fd);
    return;
  }
  if (stop_.exchange(true)) return;
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& r : reactors_) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ::ssize_t n = ::write(r->evfd, &one, sizeof one);
    if (r->thread.joinable()) r->thread.join();
  }
  for (auto& r : reactors_) {
    for (auto& [cfd, conn] : r->conns) ::close(conn->fd);
    r->conns.clear();
    r->sessions.clear();
    {
      bd::LockGuard lk(r->mu);
      for (Task& t : r->tasks) {
        if (t.kind == Task::Kind::kNewConn && t.fd >= 0) ::close(t.fd);
        if (t.kind == Task::Kind::kAdopt && t.conn) ::close(t.conn->fd);
      }
      r->tasks.clear();
    }
    ::close(r->epfd);
    ::close(r->evfd);
  }
}

std::uint64_t EdgeFrontend::connections() const { return conn_count_.load(); }
std::uint64_t EdgeFrontend::sessions() const { return session_count_.load(); }

// --------------------------------------------------------------------------
// Acceptor
// --------------------------------------------------------------------------

void EdgeFrontend::accept_loop() {
  obs::Recorder::bind_node(node_);
  obs::Recorder::label_thread("node" + std::to_string(node_) +
                              ".edge.acceptor");
  std::size_t next = 0;
  while (!stop_.load()) {
    const int lfd = listen_fd_.load();
    if (lfd < 0) break;
    const int fd = ::accept4(lfd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      const int err = errno;
      if (stop_.load() || listen_fd_.load() < 0) break;  // closed by stop()
      if (err == EINTR || err == ECONNABORTED) continue;
      if (err == EMFILE || err == ENFILE || err == ENOBUFS ||
          err == ENOMEM) {
        // Out of fds/buffers: expected under load when the deployment fd
        // cap is below max_connections. Shed and retry instead of killing
        // the acceptor for the life of the process.
        m_accept_rejects_->inc();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      BD_WARN("edge: accept4() failed: ", std::strerror(err));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    if (conn_count_.load() >= config_.max_connections) {
      m_accept_rejects_->inc();
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    m_accepts_->inc();
    Task t;
    t.kind = Task::Kind::kNewConn;
    t.fd = fd;
    post(*reactors_[next], std::move(t));
    next = (next + 1) % reactors_.size();
  }
}

void EdgeFrontend::post(Reactor& r, Task&& t) {
  bool wake = false;
  {
    bd::LockGuard lk(r.mu);
    wake = r.tasks.empty();
    r.tasks.push_back(std::move(t));
  }
  if (wake) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ::ssize_t n = ::write(r.evfd, &one, sizeof one);
  }
}

void EdgeFrontend::deliver(const Delivery& d) {
  if (reactors_.empty()) return;
  Task t;
  t.kind = Task::Kind::kDeliver;
  t.delivery = d;  // payload is a refcount bump, not a byte copy
  t.enqueued_at = mono_seconds();
  post(reactor_of(d.subscriber), std::move(t));
}

// --------------------------------------------------------------------------
// Reactor loop
// --------------------------------------------------------------------------

void EdgeFrontend::reactor_loop(Reactor& r) {
  obs::Recorder::bind_node(node_);
  obs::Recorder::label_thread("node" + std::to_string(node_) +
                              ".edge.reactor" + std::to_string(r.index));
  constexpr int kMaxEvents = 256;
  ::epoll_event events[kMaxEvents];
  r.next_reap = mono_seconds() + config_.reap_interval;
  std::deque<Task> batch;
  while (!stop_.load()) {
    const int timeout_ms =
        std::max(1, static_cast<int>(config_.reap_interval * 1000));
    const int n = ::epoll_wait(r.epfd, events, kMaxEvents, timeout_ms);
    if (stop_.load()) break;
    bool drain_tasks = false;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == r.evfd) {
        std::uint64_t junk;
        while (::read(r.evfd, &junk, sizeof junk) > 0) {
        }
        drain_tasks = true;
        continue;
      }
      auto it = r.conns.find(events[i].data.fd);
      if (it == r.conns.end()) continue;
      Conn& c = *it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_conn(r, c, /*evicted=*/false);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) {
        handle_readable(r, c);
        if (r.conns.find(events[i].data.fd) == r.conns.end()) continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) handle_writable(r, c);
    }
    if (drain_tasks) {
      {
        bd::LockGuard lk(r.mu);
        batch.swap(r.tasks);
      }
      for (Task& t : batch) {
        switch (t.kind) {
          case Task::Kind::kNewConn: {
            auto conn = std::make_unique<Conn>();
            conn->fd = t.fd;
            adopt_conn(r, std::move(conn));
            break;
          }
          case Task::Kind::kDeliver:
            deliver_on_reactor(r, t.delivery, t.enqueued_at);
            break;
          case Task::Kind::kAdopt: {
            const int fd = t.conn->fd;
            adopt_conn(r, std::move(t.conn));
            auto it = r.conns.find(fd);
            if (it != r.conns.end()) {
              attach_session(r, *it->second, t.hello);
              for (Envelope& env : t.rest) {
                it = r.conns.find(fd);
                if (it == r.conns.end()) break;
                handle_envelope(r, *it->second, std::move(env));
              }
            }
            break;
          }
        }
      }
      batch.clear();
    }
    // Flush everything that queued output during this wake: close the open
    // frame and push bytes until the socket would block (then EPOLLOUT
    // takes over — interest-mask driven flushing).
    for (const int fd : r.dirty) {
      auto it = r.conns.find(fd);
      if (it == r.conns.end()) continue;
      it->second->dirty = false;
      flush_conn(r, *it->second);
    }
    r.dirty.clear();
    const double now = mono_seconds();
    if (now >= r.next_reap) {
      reap_sessions(r);
      r.next_reap = now + config_.reap_interval;
    }
  }
}

void EdgeFrontend::adopt_conn(Reactor& r, std::unique_ptr<Conn> conn) {
  ::epoll_event ev{};
  ev.events = EPOLLIN | (conn->want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd;
  if (::epoll_ctl(r.epfd, EPOLL_CTL_ADD, conn->fd, &ev) != 0) {
    ::close(conn->fd);
    if (conn->session != nullptr) conn->session->conn = nullptr;
    if (conn->counted) conn_count_.fetch_sub(1);
    return;
  }
  const int fd = conn->fd;
  if (!conn->counted) {
    conn->counted = true;
    conn_count_.fetch_add(1);
    m_conns_->set(static_cast<double>(conn_count_.load()));
  }
  r.conns.emplace(fd, std::move(conn));
  r.conns_gauge->set(static_cast<double>(r.conns.size()));
}

// --------------------------------------------------------------------------
// Read path
// --------------------------------------------------------------------------

void EdgeFrontend::handle_readable(Reactor& r, Conn& c) {
  const int fd = c.fd;
  for (;;) {
    if (!c.in_body) {
      const ::ssize_t n = ::recv(fd, c.lenbuf + c.got, 4 - c.got, 0);
      if (n == 0) return close_conn(r, c, false);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        return close_conn(r, c, false);
      }
      c.got += static_cast<std::uint32_t>(n);
      if (c.got < 4) continue;
      c.len = net::wire::read_frame_len(c.lenbuf);
      if (c.len == 0 || c.len > net::wire::kMaxFrame) {
        m_malformed_->inc();
        return close_conn(r, c, false);
      }
      c.body = std::make_shared<std::vector<std::uint8_t>>(c.len);
      c.in_body = true;
      c.got = 0;
    }
    const ::ssize_t n =
        ::recv(fd, c.body->data() + c.got, c.len - c.got, 0);
    if (n == 0) return close_conn(r, c, false);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return close_conn(r, c, false);
    }
    c.got += static_cast<std::uint32_t>(n);
    if (c.got < c.len) continue;
    // Frame complete: parse with the refcounted buffer as owner, so every
    // payload is a zero-copy view that keeps the frame alive into the
    // dispatcher (and, for publishes, across the whole match pipeline).
    auto body = std::move(c.body);
    const std::uint32_t len = c.len;
    c.in_body = false;
    c.got = 0;
    net::wire::ParsedFrame frame = net::wire::parse_frame(
        body->data(), len, std::shared_ptr<const void>(body, body.get()));
    if (!frame.ok) {
      m_malformed_->inc();
      return close_conn(r, c, false);
    }
    for (std::size_t i = 0; i < frame.envelopes.size(); ++i) {
      Envelope& env = frame.envelopes[i];
      if (auto* hello = std::get_if<EdgeHello>(&env.payload)) {
        std::vector<Envelope> rest(
            std::make_move_iterator(frame.envelopes.begin() + i + 1),
            std::make_move_iterator(frame.envelopes.end()));
        handle_hello(r, c, *hello, std::move(rest));
        // The connection may have migrated to another reactor or closed;
        // either way this reactor is done with it for now.
        return;
      }
      handle_envelope(r, c, std::move(env));
      if (r.conns.find(fd) == r.conns.end()) return;  // closed mid-frame
    }
  }
}

void EdgeFrontend::handle_envelope(Reactor& r, Conn& c, Envelope&& env) {
  Session* s = c.session;
  if (s == nullptr) {
    // Protocol requires EdgeHello first on every connection.
    m_malformed_->inc();
    return close_conn(r, c, false);
  }
  std::visit(
      [&](auto&& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, EdgeAck>) {
          m_acks_->inc();
          if (msg.seq > s->acked) s->acked = msg.seq;
          while (!s->ring.empty() && s->ring.front().seq <= s->acked) {
            s->ring.pop_front();
          }
        } else if constexpr (std::is_same_v<T, ClientSubscribe>) {
          Subscription sub = std::move(msg.sub);
          const std::uint64_t client_id = sub.id;
          // A reused client sub id replaces the previous subscription:
          // withdraw the old global mapping first so it cannot keep
          // matching (duplicate deliveries) or leak until session drop.
          auto old = s->client_to_global.find(client_id);
          if (old != s->client_to_global.end()) {
            const std::uint64_t old_gid = old->second;
            s->global_to_client.erase(old_gid);
            auto sit = s->subs_by_global.find(old_gid);
            if (sit != s->subs_by_global.end()) {
              Subscription old_sub = std::move(sit->second);
              s->subs_by_global.erase(sit);
              m_unsubscribes_->inc();
              ingress_(Envelope::of(ClientUnsubscribe{std::move(old_sub)}));
            }
          }
          const std::uint64_t gid = kEdgeIdBit | next_sub_id_.fetch_add(1);
          sub.id = gid;
          sub.subscriber = s->id;
          s->client_to_global[client_id] = gid;
          s->global_to_client[gid] = client_id;
          s->subs_by_global[gid] = sub;
          m_subscribes_->inc();
          ingress_(Envelope::of(ClientSubscribe{std::move(sub)}));
        } else if constexpr (std::is_same_v<T, ClientUnsubscribe>) {
          auto it = s->client_to_global.find(msg.sub.id);
          if (it == s->client_to_global.end()) return;
          const std::uint64_t gid = it->second;
          s->client_to_global.erase(it);
          s->global_to_client.erase(gid);
          auto sit = s->subs_by_global.find(gid);
          if (sit == s->subs_by_global.end()) return;
          Subscription sub = std::move(sit->second);
          s->subs_by_global.erase(sit);
          m_unsubscribes_->inc();
          ingress_(Envelope::of(ClientUnsubscribe{std::move(sub)}));
        } else if constexpr (std::is_same_v<T, ClientPublish>) {
          msg.msg.id = kEdgeIdBit | next_msg_id_.fetch_add(1);
          m_publishes_->inc();
          ingress_(Envelope::of(ClientPublish{std::move(msg.msg)}));
        } else {
          m_malformed_->inc();
        }
      },
      env.payload);
}

// --------------------------------------------------------------------------
// Sessions: hello / resume / replay
// --------------------------------------------------------------------------

void EdgeFrontend::handle_hello(Reactor& r, Conn& c, const EdgeHello& hello,
                                std::vector<Envelope>&& rest) {
  if (c.session != nullptr) {
    m_malformed_->inc();
    return close_conn(r, c, false);
  }
  // Resume requests route to the session's owning reactor (id % R); a
  // connection accepted elsewhere migrates — whole Conn state moves, the
  // target re-registers the fd and continues with any pipelined envelopes.
  if (hello.session != 0) {
    Reactor& owner = reactor_of(hello.session);
    if (owner.index != r.index) {
      const int fd = c.fd;
      ::epoll_ctl(r.epfd, EPOLL_CTL_DEL, fd, nullptr);
      auto it = r.conns.find(fd);
      Task t;
      t.kind = Task::Kind::kAdopt;
      t.conn = std::move(it->second);
      t.hello = hello;
      t.rest = std::move(rest);
      r.conns.erase(it);
      r.conns_gauge->set(static_cast<double>(r.conns.size()));
      post(owner, std::move(t));
      return;
    }
  }
  attach_session(r, c, hello);
  const int fd = c.fd;
  for (Envelope& env : rest) {
    if (r.conns.find(fd) == r.conns.end()) return;
    handle_envelope(r, c, std::move(env));
  }
}

void EdgeFrontend::attach_session(Reactor& r, Conn& c, const EdgeHello& hello) {
  Session* s = nullptr;
  bool resumed = false;
  if (hello.session != 0) {
    auto it = r.sessions.find(hello.session);
    if (it != r.sessions.end()) {
      s = it->second.get();
      resumed = true;
    }
  }
  if (s == nullptr) {
    auto fresh = std::make_unique<Session>();
    fresh->id = r.next_ordinal++ * static_cast<std::uint64_t>(
                                       reactors_.size()) +
                static_cast<std::uint64_t>(r.index);
    s = fresh.get();
    r.sessions.emplace(s->id, std::move(fresh));
    session_count_.fetch_add(1);
    m_sessions_gauge_->set(static_cast<double>(session_count_.load()));
    m_sessions_created_->inc();
  } else {
    m_sessions_resumed_->inc();
    if (s->conn != nullptr) {
      // Latest connection wins; the stale one (half-dead NAT socket, or a
      // client double-connect) is dropped without detaching the session.
      Conn* old = s->conn;
      old->session = nullptr;
      close_conn(r, *old, false);
    }
    // The client's last seen sequence number is an implicit cumulative ack.
    if (hello.last_seq > s->acked) s->acked = hello.last_seq;
    while (!s->ring.empty() && s->ring.front().seq <= s->acked) {
      s->ring.pop_front();
    }
  }
  c.session = s;
  s->conn = &c;
  s->detached_since = 0.0;

  EdgeWelcome welcome;
  welcome.session = s->id;
  welcome.resumed = resumed;
  const std::uint64_t expect = hello.last_seq + 1;
  welcome.next_seq = s->ring.empty() ? s->next_seq : s->ring.front().seq;
  if (resumed && welcome.next_seq > expect) {
    // Entries past the client's horizon already fell off the bounded ring:
    // the resume has a gap, reported via next_seq and counted per message.
    m_replay_gaps_->inc(welcome.next_seq - expect);
  }
  const int fd = c.fd;
  enqueue_event(r, c, Envelope::of(welcome));
  // Replay everything still unacknowledged. enqueue_event may evict the
  // connection mid-replay (bounded write queue); the guard stops the loop
  // before touching the destroyed Conn — the session keeps its ring.
  for (const EdgeEvent& ev : s->ring) {
    auto it = r.conns.find(fd);
    if (it == r.conns.end()) return;
    m_replay_hits_->inc();
    enqueue_event(r, *it->second, Envelope::of(ev));
  }
}

void EdgeFrontend::deliver_on_reactor(Reactor& r, const Delivery& d,
                                      double enqueued_at) {
  auto it = r.sessions.find(d.subscriber);
  if (it == r.sessions.end()) {
    m_deliveries_orphaned_->inc();
    return;
  }
  Session& s = *it->second;
  EdgeEvent ev;
  ev.seq = s.next_seq++;
  ev.delivery = d;  // payload refcount bump, bytes stay in the matcher frame
  auto g = s.global_to_client.find(d.sub_id);
  if (g != s.global_to_client.end()) ev.delivery.sub_id = g->second;
  if (s.ring.size() >= config_.replay_entries) {
    s.ring.pop_front();
    m_replay_overflow_->inc();
  }
  s.ring.push_back(ev);
  m_deliveries_->inc();
  if (s.conn != nullptr) {
    enqueue_event(r, *s.conn, Envelope::of(std::move(ev)));
    m_delivery_latency_->record(mono_seconds() - enqueued_at);
  }
}

// --------------------------------------------------------------------------
// Write path: bounded queue, frame batching, interest-mask flushing
// --------------------------------------------------------------------------

void EdgeFrontend::enqueue_event(Reactor& r, Conn& c, const Envelope& env) {
  if (c.open_header == kNoOpenFrame) {
    c.open_header = c.wbuf.size();
    c.wbuf.resize(c.wbuf.size() + 8);  // header patched at frame close
    c.open_envs = 0;
  }
  r.scratch.clear();
  net::wire::build_body(r.scratch, env);
  c.wbuf.insert(c.wbuf.end(), r.scratch.data(),
                r.scratch.data() + r.scratch.size());
  if (++c.open_envs >= config_.fanout_batch) close_frame(c);
  m_queue_high_water_->record_max(static_cast<double>(c.unsent()));
  if (!c.dirty) {
    c.dirty = true;
    r.dirty.push_back(c.fd);
  }
  // Slow-client policy: a connection that cannot absorb its fan-out share
  // is evicted rather than allowed to grow an unbounded queue. The bound
  // applies to post-flush residue only: a fast client whose queue merely
  // grew within one wake (a large delivery batch, a resume replaying a big
  // ring) gets its bytes pushed to the socket first, so acks can make
  // progress and an oversized replay drains incrementally instead of
  // evicting before a single byte is sent. Its session stays resumable;
  // undelivered events wait in the replay ring.
  if (c.unsent() > config_.write_queue_bytes) {
    const int fd = c.fd;
    flush_conn(r, c);  // may close the conn itself on a socket error
    auto it = r.conns.find(fd);
    if (it == r.conns.end()) return;
    if (it->second->unsent() > config_.write_queue_bytes) {
      close_conn(r, *it->second, true);
    }
  }
}

void EdgeFrontend::close_frame(Conn& c) {
  if (c.open_header == kNoOpenFrame) return;
  const std::size_t body_bytes = c.wbuf.size() - c.open_header - 8;
  std::uint8_t header[8];
  net::wire::fill_header(header, static_cast<std::uint32_t>(body_bytes),
                         node_);
  std::memcpy(c.wbuf.data() + c.open_header, header, 8);
  m_frames_out_->inc();
  m_fanout_batch_->record_units(static_cast<std::uint64_t>(c.open_envs));
  c.open_header = kNoOpenFrame;
  c.open_envs = 0;
}

void EdgeFrontend::flush_conn(Reactor& r, Conn& c) {
  close_frame(c);
  while (c.woff < c.wbuf.size()) {
    const ::ssize_t n = ::send(c.fd, c.wbuf.data() + c.woff,
                               c.wbuf.size() - c.woff, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return close_conn(r, c, false);
    }
    c.woff += static_cast<std::size_t>(n);
    m_bytes_out_->inc(static_cast<std::uint64_t>(n));
  }
  if (c.woff == c.wbuf.size()) {
    c.wbuf.clear();
    c.woff = 0;
  } else if (c.woff > (1u << 16)) {
    c.wbuf.erase(c.wbuf.begin(),
                 c.wbuf.begin() + static_cast<std::ptrdiff_t>(c.woff));
    c.woff = 0;
  }
  update_interest(r, c);
}

void EdgeFrontend::handle_writable(Reactor& r, Conn& c) { flush_conn(r, c); }

void EdgeFrontend::update_interest(Reactor& r, Conn& c) {
  const bool want = c.woff < c.wbuf.size();
  if (want == c.want_write) return;
  c.want_write = want;
  ::epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.fd = c.fd;
  ::epoll_ctl(r.epfd, EPOLL_CTL_MOD, c.fd, &ev);
}

// --------------------------------------------------------------------------
// Teardown paths
// --------------------------------------------------------------------------

void EdgeFrontend::close_conn(Reactor& r, Conn& c, bool evicted) {
  const int fd = c.fd;
  auto it = r.conns.find(fd);
  if (it == r.conns.end() || it->second.get() != &c) return;
  ::epoll_ctl(r.epfd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  if (c.session != nullptr) {
    c.session->conn = nullptr;
    c.session->detached_since = mono_seconds();
    c.session = nullptr;
  }
  (evicted ? m_evictions_ : m_disconnects_)->inc();
  r.conns.erase(it);
  conn_count_.fetch_sub(1);
  m_conns_->set(static_cast<double>(conn_count_.load()));
  r.conns_gauge->set(static_cast<double>(r.conns.size()));
}

void EdgeFrontend::reap_sessions(Reactor& r) {
  const double now = mono_seconds();
  for (auto it = r.sessions.begin(); it != r.sessions.end();) {
    Session& s = *it->second;
    if (s.conn != nullptr || s.detached_since == 0.0 ||
        now - s.detached_since < config_.session_timeout) {
      ++it;
      continue;
    }
    drop_session(r, s);
    it = r.sessions.erase(it);
    session_count_.fetch_sub(1);
    m_sessions_reaped_->inc();
  }
  m_sessions_gauge_->set(static_cast<double>(session_count_.load()));
}

void EdgeFrontend::drop_session(Reactor&, Session& s) {
  // Clean the cluster up behind the vanished client: every subscription
  // this session planted is withdrawn through the normal ingress path.
  for (auto& [gid, sub] : s.subs_by_global) {
    ingress_(Envelope::of(ClientUnsubscribe{sub}));
  }
  s.subs_by_global.clear();
  s.client_to_global.clear();
  s.global_to_client.clear();
}

}  // namespace bluedove::edge
