#include "net/wire.h"

#include <sys/socket.h>

#include <cerrno>

namespace bluedove::net::wire {

void build_frame(serde::Writer& w, NodeId sender, const Envelope& env) {
  w.clear();
  const std::size_t len_at = w.reserve(4);
  w.u32(sender);
  write_envelope(w, env);
  w.patch_u32(len_at, static_cast<std::uint32_t>(w.size() - 4));
}

void build_body(serde::Writer& w, const Envelope& env) {
  w.clear();
  write_envelope(w, env);
}

FrameStats FrameBuilder::append(const Envelope& env) {
  FrameStats closed;
  if (open_ == kNoFrame) {
    open_ = out_.reserve(4);  // length prefix, patched by close()
    out_.u32(sender_);
  }
  const std::size_t at = out_.size();
  write_envelope(out_, env);
  // The length word counts everything after it: sender + envelopes.
  if (open_envs_ > 0 && out_.size() - open_ - 4 > kMaxFrame) {
    // Past the cap: the envelope starts the next frame instead. It is
    // serialized again, at most once per kMaxFrame of output.
    out_.truncate(at);
    closed = close();
    append(env);  // opens a fresh frame, which never splits
    return closed;
  }
  ++open_envs_;
  return closed;
}

FrameStats FrameBuilder::close() {
  if (open_ == kNoFrame) return {};
  const std::size_t bytes = out_.size() - open_;
  out_.patch_u32(open_, static_cast<std::uint32_t>(bytes - 4));
  const FrameStats stats{open_envs_, bytes};
  open_ = kNoFrame;
  open_envs_ = 0;
  return stats;
}

void FrameBuilder::consume(std::size_t n) {
  head_ += n;
  if (head_ == out_.size()) {
    clear();
  } else if (head_ > (1u << 16)) {
    // A reader that keeps draining without ever catching up: reclaim the
    // written prefix instead of growing the buffer without bound.
    out_.erase_front(head_);
    if (open_ != kNoFrame) open_ -= head_;
    head_ = 0;
  }
}

void FrameBuilder::clear() {
  out_.clear();
  head_ = 0;
  open_ = kNoFrame;
  open_envs_ = 0;
}

std::uint32_t read_frame_len(const std::uint8_t bytes[4]) {
  return static_cast<std::uint32_t>(bytes[0]) |
         (static_cast<std::uint32_t>(bytes[1]) << 8) |
         (static_cast<std::uint32_t>(bytes[2]) << 16) |
         (static_cast<std::uint32_t>(bytes[3]) << 24);
}

ParsedFrame parse_frame(const std::uint8_t* body, std::size_t len,
                        std::shared_ptr<const void> owner) {
  ParsedFrame out;
  serde::Reader r(body, len);
  if (owner != nullptr) r.set_owner(std::move(owner));
  out.from = r.u32();
  while (r.ok() && !r.at_end()) {
    out.envelopes.push_back(read_envelope(r));
  }
  out.ok = r.ok() && !out.envelopes.empty();
  out.payload_copies = r.copies();
  out.payload_bytes_copied = r.copy_bytes();
  return out;
}

bool write_all(int fd, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t len) {
  auto* p = static_cast<std::uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = ::recv(fd, p, len, 0);
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool send_frame(int fd, NodeId from, const Envelope& env) {
  thread_local serde::Writer w;  // reused frame buffer, no steady-state alloc
  build_frame(w, from, env);
  return write_all(fd, w.data(), w.size());
}

}  // namespace bluedove::net::wire
