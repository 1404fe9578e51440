#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace xt {

/// Little-endian binary writer used for every wire format in the repo
/// (rollout batches, DNN weights, stats records, control commands).
class BinWriter {
 public:
  BinWriter() = default;

  /// The bytes `fields(writer)` writes, in a buffer allocated once at
  /// exactly their size: `fields` runs first on a writer that only counts,
  /// then on one reserved to the count. A body is then never reallocated
  /// (each growth would copy it whole), and its size cannot drift from the
  /// code that writes it. `fields` must write the same sequence both times.
  template <typename Fields>
  [[nodiscard]] static Bytes exact(const Fields& fields) {
    BinWriter counter;
    counter.counting_ = true;
    fields(counter);
    BinWriter writer;
    writer.buf_.reserve(counter.counted_);
    fields(writer);
    assert(writer.buf_.size() == counter.counted_);
    return writer.take();
  }

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v);
  void i64(std::int64_t v);
  void f32(float v);
  void f64(double v);
  void boolean(bool v);
  void str(const std::string& v);
  void bytes(const Bytes& v);
  /// Length-prefixed float vector; the hot path for observations/weights.
  void f32_vec(const std::vector<float>& v);
  /// The n bytes at p as they are, with no length prefix.
  void raw(const void* p, std::size_t n);

  [[nodiscard]] const Bytes& buffer() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }
  void reserve(std::size_t n) { buf_.reserve(n); }

 private:
  Bytes buf_;
  bool counting_ = false;     ///< exact()'s first pass: count, write nothing
  std::size_t counted_ = 0;
};

/// Bounds-checked reader over a byte span. Every accessor returns nullopt
/// past the end instead of reading garbage; wire data is treated as
/// untrusted (it crossed a process/machine boundary in the real system).
class BinReader {
 public:
  explicit BinReader(const Bytes& data) : data_(data.data()), size_(data.size()) {}
  BinReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  std::optional<std::uint8_t> u8();
  std::optional<std::uint16_t> u16();
  std::optional<std::uint32_t> u32();
  std::optional<std::uint64_t> u64();
  std::optional<std::int32_t> i32();
  std::optional<std::int64_t> i64();
  std::optional<float> f32();
  std::optional<double> f64();
  std::optional<bool> boolean();
  std::optional<std::string> str();
  std::optional<Bytes> bytes();
  std::optional<std::vector<float>> f32_vec();
  /// The first of the next n bytes, read as they are (no length prefix).
  std::optional<const std::uint8_t*> span(std::size_t n);

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == size_; }

 private:
  bool raw(void* p, std::size_t n);
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace xt
