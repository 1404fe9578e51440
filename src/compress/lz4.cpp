#include "compress/lz4.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace xt::lz4 {
namespace {

constexpr std::size_t kMinMatch = 4;
// The LZ4 format forbids matches within the last 12 bytes of the block and
// requires the final 5 bytes to be literals.
constexpr std::size_t kLastLiterals = 5;
constexpr std::size_t kMfLimit = 12;
constexpr std::size_t kMaxOffset = 65535;
constexpr int kHashLog = 16;
// Reference LZ4's skip acceleration: every 2^kSkipTrigger consecutive failed
// probes lengthen the search step by one byte, so incompressible stretches
// cost a probe per stride instead of a probe per byte.
constexpr unsigned kSkipTrigger = 6;

std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t read_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint32_t hash4(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashLog);
}

/// Length of the common prefix of `a` and `b` (with a < b), reading no byte
/// at or past `b_limit`: eight bytes per step, the last few one at a time.
std::size_t common_length(const std::uint8_t* a, const std::uint8_t* b,
                          const std::uint8_t* b_limit) {
  const std::uint8_t* const start = b;
  while (b + 8 <= b_limit) {
    const std::uint64_t diff = read_u64(a) ^ read_u64(b);
    if (diff != 0) {
      const int bit = std::endian::native == std::endian::little
                          ? std::countr_zero(diff)
                          : std::countl_zero(diff);
      return static_cast<std::size_t>(b - start) + static_cast<std::size_t>(bit / 8);
    }
    a += 8;
    b += 8;
  }
  while (b < b_limit && *a == *b) {
    ++a;
    ++b;
  }
  return static_cast<std::size_t>(b - start);
}

std::uint8_t* write_length(std::uint8_t* op, std::size_t len) {
  while (len >= 255) {
    *op++ = 255;
    len -= 255;
  }
  *op++ = static_cast<std::uint8_t>(len);
  return op;
}

/// Position table, kept per thread so a call does not allocate 256 KB.
/// Positions are stored +1 so that 0 means "empty".
std::uint32_t* cleared_hash_table() {
  thread_local std::vector<std::uint32_t> table(std::size_t{1} << kHashLog);
  std::fill(table.begin(), table.end(), 0u);
  return table.data();
}

}  // namespace

std::size_t compress_bound(std::size_t n) {
  return n + n / 255 + 16;
}

Bytes compress(const Bytes& input) {
  const std::size_t n = input.size();
  const std::uint8_t* src = input.data();
  Bytes out(compress_bound(n));
  std::uint8_t* op = out.data();
  std::size_t anchor = 0;  // start of pending literals

  // Inputs too small for any match are one literals-only sequence.
  if (n >= kMfLimit + 1) {
    std::uint32_t* table = cleared_hash_table();
    const std::size_t match_limit = n - kMfLimit;
    const std::uint8_t* const extend_limit = src + n - kLastLiterals;
    std::size_t pos = 0;
    std::size_t misses = 0;  // consecutive failed probes

    while (pos < match_limit) {
      const std::uint32_t h = hash4(read_u32(src + pos));
      const std::uint32_t candidate_plus1 = table[h];
      table[h] = static_cast<std::uint32_t>(pos + 1);

      const std::size_t match_pos = candidate_plus1 - 1;
      if (candidate_plus1 == 0 || pos - match_pos > kMaxOffset ||
          read_u32(src + match_pos) != read_u32(src + pos)) {
        pos += 1 + (misses++ >> kSkipTrigger);
        continue;
      }
      misses = 0;

      // Extend the match forward (bounded so the last 5 bytes stay literals).
      const std::size_t match_len =
          kMinMatch + common_length(src + match_pos + kMinMatch,
                                    src + pos + kMinMatch, extend_limit);

      // Emit token + literals + offset + extended match length.
      const std::size_t lit_len = pos - anchor;
      const std::size_t ml_code = match_len - kMinMatch;
      std::uint8_t* const token = op++;
      *token = static_cast<std::uint8_t>(((lit_len < 15 ? lit_len : 15) << 4) |
                                         (ml_code < 15 ? ml_code : 15));
      if (lit_len >= 15) op = write_length(op, lit_len - 15);
      std::memcpy(op, src + anchor, lit_len);
      op += lit_len;
      const std::size_t offset = pos - match_pos;
      *op++ = static_cast<std::uint8_t>(offset & 0xFF);
      *op++ = static_cast<std::uint8_t>(offset >> 8);
      if (ml_code >= 15) op = write_length(op, ml_code - 15);

      pos += match_len;
      anchor = pos;
      if (pos < match_limit) {
        // Seed the table with an intermediate position for better ratios.
        table[hash4(read_u32(src + pos - 2))] = static_cast<std::uint32_t>(pos - 1);
      }
    }
  }

  // Final literals-only sequence.
  const std::size_t lit_len = n - anchor;
  *op++ = static_cast<std::uint8_t>(lit_len < 15 ? lit_len << 4 : 0xF0);
  if (lit_len >= 15) op = write_length(op, lit_len - 15);
  if (lit_len != 0) std::memcpy(op, src + anchor, lit_len);  // src is null if n == 0
  op += lit_len;
  out.resize(static_cast<std::size_t>(op - out.data()));
  return out;
}

std::optional<Bytes> decompress(const Bytes& input, std::size_t expected_size) {
  Bytes out;
  out.reserve(expected_size);
  const std::uint8_t* src = input.data();
  const std::size_t n = input.size();
  std::size_t ip = 0;

  if (n == 0) {
    if (expected_size == 0) return out;
    return std::nullopt;
  }

  while (ip < n) {
    const std::uint8_t token = src[ip++];

    // Literal run.
    std::size_t lit_len = token >> 4;
    if (lit_len == 15) {
      std::uint8_t b;
      do {
        if (ip >= n) return std::nullopt;
        b = src[ip++];
        lit_len += b;
      } while (b == 255);
    }
    if (ip + lit_len > n) return std::nullopt;
    if (out.size() + lit_len > expected_size) return std::nullopt;
    out.insert(out.end(), src + ip, src + ip + lit_len);
    ip += lit_len;

    if (ip == n) break;  // last sequence has no match part

    // Match.
    if (ip + 2 > n) return std::nullopt;
    const std::size_t offset = src[ip] | (static_cast<std::size_t>(src[ip + 1]) << 8);
    ip += 2;
    if (offset == 0 || offset > out.size()) return std::nullopt;

    std::size_t match_len = (token & 0x0F);
    if (match_len == 15) {
      std::uint8_t b;
      do {
        if (ip >= n) return std::nullopt;
        b = src[ip++];
        match_len += b;
      } while (b == 255);
    }
    match_len += kMinMatch;
    if (out.size() + match_len > expected_size) return std::nullopt;

    // Byte-by-byte copy supports overlapping matches (RLE-style runs).
    std::size_t from = out.size() - offset;
    for (std::size_t i = 0; i < match_len; ++i) {
      out.push_back(out[from + i]);
    }
  }

  if (out.size() != expected_size) return std::nullopt;
  return out;
}

}  // namespace xt::lz4
