// Byte-level serialization used for checkpoint images (criu/), control-plane
// messages (net::OobChannel payloads), and the MigrRDMA dump format.
//
// The format is little-endian fixed-width integers plus length-prefixed
// byte strings. Readers are bounds-checked and report truncation as a
// Status instead of crashing — checkpoint images cross a (simulated)
// network and must be treated as untrusted input.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"

namespace migr::common {

using Bytes = std::vector<std::uint8_t>;

/// Fixed-capacity inline byte buffer. Used for small fixed-format blobs on
/// hot paths (per-packet wire headers) where a heap-backed Bytes would cost
/// an allocation per instance. Contents beyond size() are uninitialized.
template <std::size_t N>
class SmallBytes {
 public:
  SmallBytes() = default;

  static constexpr std::size_t capacity() noexcept { return N; }
  std::size_t size() const noexcept { return len_; }
  bool empty() const noexcept { return len_ == 0; }

  std::uint8_t* data() noexcept { return buf_.data(); }
  const std::uint8_t* data() const noexcept { return buf_.data(); }

  void resize(std::size_t n) noexcept {
    assert(n <= N);
    len_ = static_cast<std::uint32_t>(n);
  }
  void clear() noexcept { len_ = 0; }

  void assign(std::span<const std::uint8_t> src) noexcept {
    assert(src.size() <= N);
    std::memcpy(buf_.data(), src.data(), src.size());
    len_ = static_cast<std::uint32_t>(src.size());
  }

  std::span<std::uint8_t> span() noexcept { return {buf_.data(), len_}; }
  std::span<const std::uint8_t> span() const noexcept { return {buf_.data(), len_}; }

 private:
  std::array<std::uint8_t, N> buf_;
  std::uint32_t len_ = 0;
};

/// Append-only serializer.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Room for `capacity` bytes up front: a writer sized to its exact output
  /// never reallocates, and take() hands over a buffer with no slack.
  explicit ByteWriter(std::size_t capacity) { buf_.reserve(capacity); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    append_le(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed (u32) raw bytes.
  void bytes(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  void str(std::string_view s) {
    bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

  /// Raw append without length prefix (caller tracks framing).
  void raw(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Length-prefixed (u32) encoding of `s`, written in place: the same bytes
  /// as bytes(s.serialize()) without the intermediate buffer. `S` provides
  /// serialized_size() and serialize_into(ByteWriter&).
  template <typename S>
  void section(const S& s) {
    const std::size_t n = s.serialized_size();
    u32(static_cast<std::uint32_t>(n));
    [[maybe_unused]] const std::size_t start = buf_.size();
    s.serialize_into(*this);
    assert(buf_.size() - start == n);
  }

  std::size_t size() const noexcept { return buf_.size(); }
  const Bytes& data() const& noexcept { return buf_; }
  Bytes take() && { return std::move(buf_); }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  Bytes buf_;
};

/// Bounds-checked deserializer over a borrowed buffer.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}
  explicit ByteReader(const Bytes& data) : data_(data) {}

  Result<std::uint8_t> u8() { return read_le<std::uint8_t>(); }
  Result<std::uint16_t> u16() { return read_le<std::uint16_t>(); }
  Result<std::uint32_t> u32() { return read_le<std::uint32_t>(); }
  Result<std::uint64_t> u64() { return read_le<std::uint64_t>(); }
  Result<std::int64_t> i64() {
    MIGR_ASSIGN_OR_RETURN(auto v, read_le<std::uint64_t>());
    return static_cast<std::int64_t>(v);
  }
  Result<double> f64() {
    MIGR_ASSIGN_OR_RETURN(auto bits, read_le<std::uint64_t>());
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  Result<bool> boolean() {
    MIGR_ASSIGN_OR_RETURN(auto v, u8());
    return v != 0;
  }

  Result<Bytes> bytes() {
    MIGR_ASSIGN_OR_RETURN(auto v, view());
    return Bytes(v.begin(), v.end());
  }
  /// bytes() without the copy: a view into the buffer being read, valid for
  /// as long as that buffer is.
  Result<std::span<const std::uint8_t>> view() {
    MIGR_ASSIGN_OR_RETURN(auto n, u32());
    return view(n);
  }
  /// The next `n` bytes as a view (no length prefix).
  Result<std::span<const std::uint8_t>> view(std::size_t n) {
    if (remaining() < n) return truncated();
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  /// A record count (u32, or T) that a container may be sized from: fails
  /// unless the rest of the buffer can hold that many records of at least
  /// `min_record` bytes, so a corrupt count cannot reserve gigabytes.
  template <typename T = std::uint32_t>
  Result<T> count(std::size_t min_record) {
    MIGR_ASSIGN_OR_RETURN(auto n, read_le<T>());
    if (n > remaining() / min_record) {
      return err(Errc::invalid_argument, "record count exceeds buffer");
    }
    return n;
  }
  Result<std::string> str() {
    MIGR_ASSIGN_OR_RETURN(auto v, view());
    return std::string{v.begin(), v.end()};
  }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return remaining() == 0; }

 private:
  template <typename T>
  Result<T> read_le() {
    if (remaining() < sizeof(T)) return truncated();
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }
  static Status truncated() {
    return err(Errc::invalid_argument, "truncated buffer");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace migr::common
