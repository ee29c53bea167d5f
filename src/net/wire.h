#pragma once
// Wire framing for the TCP transport and the client edge.
//
// Every TCP frame is:
//   u32  frame length (bytes that follow, little-endian)
//   u32  sender node id
//   ...  one or more serialized Envelopes, back to back
//
// The receiver parses envelopes until the frame is exhausted. A
// single-envelope frame is byte-identical to the historical
// one-message-per-frame format.
//
// One batching rule covers every outbound socket: a frame holds what one
// flush carries, split only at kMaxFrame. FrameBuilder implements it —
// TcpHost keeps one per peer and closes it at the end of each node task,
// EdgeFrontend keeps one per client connection and closes it at the end of
// each reactor wake. Envelopes serialize exactly once, straight into the
// open frame; the length prefix is reserved up front and patched when the
// frame closes.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/serde.h"
#include "net/protocol.h"

namespace bluedove::net::wire {

/// Frames larger than this are treated as malformed by the reader.
inline constexpr std::uint32_t kMaxFrame = 64u * 1024u * 1024u;

/// Bytes of the per-frame header that precede the envelope bytes (the
/// sender id; the length prefix itself is not part of the framed length).
inline constexpr std::size_t kFrameOverhead = 4;

/// Serializes one complete single-envelope frame (length prefix + sender +
/// envelope) into `w`, which is cleared first. After the call `w.data()` /
/// `w.size()` are ready for one write syscall.
void build_frame(serde::Writer& w, NodeId sender, const Envelope& env);

/// Serializes just the envelope bytes (no header) into `w`, cleared first.
void build_body(serde::Writer& w, const Envelope& env);

/// What closing one frame reports, for metrics.
struct FrameStats {
  std::uint32_t envelopes = 0;  ///< 0 when no frame was closed
  std::size_t bytes = 0;        ///< the whole frame, length prefix included
};

/// An outbound byte stream of frames: closed frames ready to write, then at
/// most one open frame still taking envelopes. Not thread-safe; each owner
/// (a TcpHost peer, an edge connection) keeps one on the thread that
/// writes it.
class FrameBuilder {
 public:
  explicit FrameBuilder(NodeId sender) : sender_(sender) {}

  /// Serializes `env` into the open frame, opening one when none is. An
  /// envelope that would take a non-empty open frame past kMaxFrame closes
  /// that frame and starts the next one; the closed frame's counts are
  /// returned (envelopes == 0 when the append closed nothing).
  FrameStats append(const Envelope& env);

  /// Closes the open frame by patching its length prefix and returns its
  /// counts (envelopes == 0 when no frame was open). Close before writing:
  /// an open frame's prefix is not yet valid.
  FrameStats close();

  /// The queued bytes: everything not yet consumed, open frame included.
  const std::uint8_t* data() const { return out_.data() + head_; }
  std::size_t size() const { return out_.size() - head_; }
  bool empty() const { return size() == 0; }

  /// Drops the first `n` queued bytes (they have been written).
  void consume(std::size_t n);

  /// Drops every queued byte, an open frame included.
  void clear();

 private:
  static constexpr std::size_t kNoFrame = static_cast<std::size_t>(-1);

  NodeId sender_;
  serde::Writer out_;
  std::size_t head_ = 0;          ///< bytes before this were consumed
  std::size_t open_ = kNoFrame;   ///< offset of the open frame's prefix
  std::uint32_t open_envs_ = 0;   ///< envelopes in the open frame
};

/// Decodes the little-endian length prefix.
std::uint32_t read_frame_len(const std::uint8_t bytes[4]);

/// Parses a frame body (everything after the length prefix): the sender id
/// followed by one or more envelopes.
///
/// When `owner` is supplied (the transport passes the refcounted frame
/// buffer `body` points into), payload fields parse as zero-copy views
/// that share the owner — the frame stays alive as long as any payload
/// does, however wide the fan-out. Without an owner every payload is
/// copied out (self-contained envelopes; the copies are counted below).
struct ParsedFrame {
  NodeId from = kInvalidNode;
  std::vector<Envelope> envelopes;
  bool ok = false;
  /// Payload copies this parse had to make (0 when an owner was supplied).
  std::uint64_t payload_copies = 0;
  std::uint64_t payload_bytes_copied = 0;
};
ParsedFrame parse_frame(const std::uint8_t* body, std::size_t len,
                        std::shared_ptr<const void> owner = nullptr);

/// Loops ::send with MSG_NOSIGNAL until all `len` bytes are written.
bool write_all(int fd, const void* data, std::size_t len);

/// Loops ::recv until `len` bytes have been read.
bool read_all(int fd, void* data, std::size_t len);

/// One-shot convenience: serialize `env` (reusing a thread-local buffer)
/// and write the frame to `fd`. No alloc on the steady-state path.
bool send_frame(int fd, NodeId from, const Envelope& env);

}  // namespace bluedove::net::wire
