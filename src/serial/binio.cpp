#include "serial/binio.h"

#include <cstring>

namespace xt {

void BinWriter::raw(const void* p, std::size_t n) {
  if (counting_) {
    counted_ += n;
    return;
  }
  const auto* b = static_cast<const std::uint8_t*>(p);
  buf_.insert(buf_.end(), b, b + n);
}

void BinWriter::u8(std::uint8_t v) { raw(&v, sizeof(v)); }
void BinWriter::u16(std::uint16_t v) { raw(&v, sizeof(v)); }
void BinWriter::u32(std::uint32_t v) { raw(&v, sizeof(v)); }
void BinWriter::u64(std::uint64_t v) { raw(&v, sizeof(v)); }
void BinWriter::i32(std::int32_t v) { raw(&v, sizeof(v)); }
void BinWriter::i64(std::int64_t v) { raw(&v, sizeof(v)); }
void BinWriter::f32(float v) { raw(&v, sizeof(v)); }
void BinWriter::f64(double v) { raw(&v, sizeof(v)); }
void BinWriter::boolean(bool v) { u8(v ? 1 : 0); }

void BinWriter::str(const std::string& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  raw(v.data(), v.size());
}

void BinWriter::bytes(const Bytes& v) {
  u64(v.size());
  raw(v.data(), v.size());
}

void BinWriter::f32_vec(const std::vector<float>& v) {
  u64(v.size());
  raw(v.data(), v.size() * sizeof(float));
}

std::optional<const std::uint8_t*> BinReader::span(std::size_t n) {
  if (n > size_ - pos_) return std::nullopt;
  const std::uint8_t* first = data_ + pos_;
  pos_ += n;
  return first;
}

bool BinReader::raw(void* p, std::size_t n) {
  const auto bytes = span(n);
  if (!bytes) return false;
  std::memcpy(p, *bytes, n);
  return true;
}

#define XT_READER_SCALAR(name, type)                  \
  std::optional<type> BinReader::name() {             \
    type v;                                           \
    if (!raw(&v, sizeof(v))) return std::nullopt;     \
    return v;                                         \
  }

XT_READER_SCALAR(u8, std::uint8_t)
XT_READER_SCALAR(u16, std::uint16_t)
XT_READER_SCALAR(u32, std::uint32_t)
XT_READER_SCALAR(u64, std::uint64_t)
XT_READER_SCALAR(i32, std::int32_t)
XT_READER_SCALAR(i64, std::int64_t)
XT_READER_SCALAR(f32, float)
XT_READER_SCALAR(f64, double)
#undef XT_READER_SCALAR

std::optional<bool> BinReader::boolean() {
  auto v = u8();
  if (!v) return std::nullopt;
  return *v != 0;
}

std::optional<std::string> BinReader::str() {
  auto n = u32();
  if (!n || pos_ + *n > size_) return std::nullopt;
  std::string out(reinterpret_cast<const char*>(data_ + pos_), *n);
  pos_ += *n;
  return out;
}

std::optional<Bytes> BinReader::bytes() {
  auto n = u64();
  if (!n || *n > size_ - pos_) return std::nullopt;
  Bytes out(data_ + pos_, data_ + pos_ + *n);
  pos_ += *n;
  return out;
}

std::optional<std::vector<float>> BinReader::f32_vec() {
  auto n = u64();
  // Guard against overflow from hostile length prefixes.
  if (!n || *n > (size_ - pos_) / sizeof(float)) return std::nullopt;
  std::vector<float> out(*n);
  // An empty vector's data() may be null, which memcpy must not be given.
  if (*n > 0) std::memcpy(out.data(), data_ + pos_, *n * sizeof(float));
  pos_ += *n * sizeof(float);
  return out;
}

}  // namespace xt
