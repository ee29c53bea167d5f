#pragma once
// Minimal binary serialization.
//
// The cluster is in-process, so serialization is not needed for transport
// correctness; it exists so the overhead experiments can account for the
// bytes each protocol message would occupy on the wire (the paper reports
// gossip traffic of ~2.9 KB/s per matcher, 60N-byte segment-table pulls and
// 64-byte load updates), and so state handover is testable as a byte stream.
//
// Encoding: little-endian fixed-width integers/doubles, varint for sizes.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace bluedove::serde {

class Writer {
 public:
  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  const std::uint8_t* data() const { return buf_.data(); }
  std::size_t size() const { return buf_.size(); }

  /// Empties the buffer but keeps its capacity, so one Writer can be reused
  /// across frames without reallocating (the wire hot path does this).
  void clear() { buf_.clear(); }

  /// Hands the underlying buffer to the caller (the Writer is left empty).
  std::vector<std::uint8_t> take() { return std::move(buf_); }

  /// Adopts `buf` as the (cleared) output buffer, reusing its capacity.
  void adopt(std::vector<std::uint8_t> buf) {
    buf_ = std::move(buf);
    buf_.clear();
  }

  /// Reserves `n` bytes at the current position and returns their offset;
  /// patch them later (length prefixes written before the length is known).
  std::size_t reserve(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return at;
  }

  /// Overwrites 4 previously written (or reserved) bytes at `at` in place.
  void patch_u32(std::size_t at, std::uint32_t v) {
    std::memcpy(buf_.data() + at, &v, sizeof v);
  }

  /// Drops everything written at or after offset `n`.
  void truncate(std::size_t n) { buf_.resize(n); }

  /// Drops the first `n` bytes (output already consumed), keeping capacity.
  void erase_front(std::size_t n) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(n));
  }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }

  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void str(const std::string& s) {
    varint(s.size());
    raw(s.data(), s.size());
  }

  /// Length-prefixed byte blob straight from caller memory; the encoding
  /// is identical to str(), so the two are interchangeable on the wire.
  /// This is how shared payloads serialize without an intermediate string.
  void blob(const char* p, std::size_t n) {
    varint(n);
    if (n != 0) raw(p, n);
  }

  template <typename T, typename Fn>
  void seq(const std::vector<T>& items, Fn&& write_one) {
    varint(items.size());
    for (const auto& item : items) write_one(*this, item);
  }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  std::vector<std::uint8_t> buf_;
};

/// Reader returns std::nullopt-style failure via ok(); reads past the end
/// yield zeroes and mark the stream bad (callers check ok() once at the end).
class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool ok() const { return ok_; }
  bool at_end() const { return pos_ == size_; }

  /// When an owner is attached, view-typed reads (read_payload_ref) alias
  /// the underlying buffer and share this refcount instead of copying; the
  /// transport attaches the frame buffer it parsed from.
  void set_owner(std::shared_ptr<const void> owner) {
    owner_ = std::move(owner);
  }
  const std::shared_ptr<const void>& owner() const { return owner_; }

  /// Returns `n` bytes at the cursor without copying and advances past
  /// them; nullptr (stream marked bad) on underrun.
  const std::uint8_t* view(std::size_t n) {
    if (n > size_ - pos_) {
      ok_ = false;
      return nullptr;
    }
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  /// Payload-copy accounting: reads that fell back to copying (no owner
  /// attached) report here; the transport exports the per-frame totals as
  /// wire.payload_copies / wire.payload_bytes_copied.
  void note_copy(std::size_t bytes) {
    ++copies_;
    copy_bytes_ += bytes;
  }
  std::uint64_t copies() const { return copies_; }
  std::uint64_t copy_bytes() const { return copy_bytes_; }

  std::uint8_t u8() {
    std::uint8_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::uint16_t u16() {
    std::uint16_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  double f64() {
    double v = 0;
    raw(&v, sizeof v);
    return v;
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      const std::uint8_t b = u8();
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) break;
      shift += 7;
      if (shift >= 64) {
        ok_ = false;
        break;
      }
    }
    return v;
  }

  std::string str() {
    const std::uint64_t n = varint();
    if (n > size_ - pos_) {
      ok_ = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  template <typename T, typename Fn>
  std::vector<T> seq(Fn&& read_one) {
    const std::uint64_t n = varint();
    std::vector<T> items;
    if (!ok_) return items;
    // A corrupt length should not trigger a huge allocation.
    if (n > size_ - pos_) {
      ok_ = false;
      return items;
    }
    items.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n && ok_; ++i) items.push_back(read_one(*this));
    return items;
  }

 private:
  void raw(void* p, std::size_t n) {
    if (n > size_ - pos_) {
      ok_ = false;
      std::memset(p, 0, n);
      return;
    }
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::shared_ptr<const void> owner_;
  std::uint64_t copies_ = 0;
  std::uint64_t copy_bytes_ = 0;
};

}  // namespace bluedove::serde
