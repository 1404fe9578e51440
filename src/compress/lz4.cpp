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

/// Where one pass over the input stands, so the pass can stop after the
/// first window and resume exactly where it stopped.
struct EncoderState {
  std::size_t pos = 0;     ///< next position to probe
  std::size_t anchor = 0;  ///< start of pending literals
  std::size_t misses = 0;  ///< consecutive failed probes
  std::uint8_t* op = nullptr;
};

/// Emits sequences while the probe position is below `limit`, which is at
/// most n - kMfLimit. A match may run past `limit`; resuming with a higher
/// limit continues the same pass, so splitting it changes no output byte.
void encode_sequences(const std::uint8_t* src, std::size_t n, std::uint32_t* table,
                      std::size_t limit, EncoderState& state) {
  const std::size_t match_limit = n - kMfLimit;
  const std::uint8_t* const extend_limit = src + n - kLastLiterals;
  std::size_t pos = state.pos;
  std::size_t anchor = state.anchor;
  std::size_t misses = state.misses;
  std::uint8_t* op = state.op;

  while (pos < limit) {
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
  state = {pos, anchor, misses, op};
}

/// True when `encoded` bytes for `covered` input bytes save at least 1/16.
bool shrank_enough(std::size_t covered, std::size_t encoded) {
  return encoded * 16 <= covered * 15;
}

/// The pass behind compress() and compress_if_worthwhile(); with
/// `judge_first_window` it returns nullopt where the latter gives up.
std::optional<Bytes> encode_block(const Bytes& input, bool judge_first_window) {
  const std::size_t n = input.size();
  const std::uint8_t* src = input.data();
  // Inputs too small for any match are one literals-only sequence.
  const std::size_t match_limit = n > kMfLimit ? n - kMfLimit : 0;
  std::uint32_t* const table = match_limit > 0 ? cleared_hash_table() : nullptr;
  Bytes out;
  EncoderState state;

  if (judge_first_window && match_limit > kWindowBytes) {
    // Judge the first window in a buffer sized for it, so a body that does
    // not pay never touches an output buffer of its own size. Sequences
    // that start in the window cost at most compress_bound of it, plus the
    // length bytes of a last match that may run to the end of the input.
    out.resize(compress_bound(kWindowBytes) + n / 255 + 1);
    state.op = out.data();
    encode_sequences(src, n, table, kWindowBytes, state);
    const std::size_t written = static_cast<std::size_t>(state.op - out.data());
    if (!shrank_enough(state.pos, written + (state.pos - state.anchor))) {
      return std::nullopt;
    }
    judge_first_window = false;
    out.resize(compress_bound(n));
    state.op = out.data() + written;
  } else {
    out.resize(compress_bound(n));
    state.op = out.data();
  }
  if (match_limit > 0) encode_sequences(src, n, table, match_limit, state);

  // Final literals-only sequence.
  std::uint8_t* op = state.op;
  const std::size_t lit_len = n - state.anchor;
  *op++ = static_cast<std::uint8_t>(lit_len < 15 ? lit_len << 4 : 0xF0);
  if (lit_len >= 15) op = write_length(op, lit_len - 15);
  // src is null if n == 0.
  if (lit_len != 0) std::memcpy(op, src + state.anchor, lit_len);
  op += lit_len;
  out.resize(static_cast<std::size_t>(op - out.data()));
  // An input whose first window is all of it is judged by its whole output.
  if (judge_first_window && !shrank_enough(n, out.size())) return std::nullopt;
  return out;
}

}  // namespace

std::size_t compress_bound(std::size_t n) {
  return n + n / 255 + 16;
}

Bytes compress(const Bytes& input) { return *encode_block(input, false); }

std::optional<Bytes> compress_if_worthwhile(const Bytes& input) {
  return encode_block(input, true);
}

std::optional<Bytes> decompress(const Bytes& input, std::size_t expected_size) {
  const std::uint8_t* src = input.data();
  const std::size_t n = input.size();
  if (n == 0) {
    if (expected_size == 0) return Bytes{};
    return std::nullopt;
  }
  // A byte of input encodes at most 255 bytes of output (a match-length
  // extension byte), so a larger claim is corrupt; checked before the
  // output buffer is sized from it.
  if (expected_size / 255 > n) return std::nullopt;

  // Reserved, not sized: literal runs are appended straight from the input,
  // and only a match's bytes are zero-filled (by resize) before the copy.
  Bytes out;
  out.reserve(expected_size);
  std::size_t ip = 0;

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
    if (lit_len > n - ip) return std::nullopt;
    if (lit_len > expected_size - out.size()) return std::nullopt;
    out.insert(out.end(), src + ip, src + ip + lit_len);
    ip += lit_len;

    if (ip == n) break;  // last sequence has no match part

    // Match.
    if (n - ip < 2) return std::nullopt;
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
    if (match_len > expected_size - out.size()) return std::nullopt;

    const std::size_t at = out.size();
    out.resize(at + match_len);  // within the reservation: no reallocation
    std::uint8_t* const op = out.data() + at;
    const std::uint8_t* const from = op - offset;
    if (offset >= match_len) {
      std::memcpy(op, from, match_len);
    } else {
      // Overlapping (RLE-style) match: the output repeats with period
      // `offset`, so copy forward in spans that double, each a whole number
      // of periods already written ([from, d) never overlaps [d, ...)).
      std::uint8_t* d = op;
      std::uint8_t* const end = op + match_len;
      while (d < end) {
        const std::size_t span = std::min(static_cast<std::size_t>(d - from),
                                          static_cast<std::size_t>(end - d));
        std::memcpy(d, from, span);
        d += span;
      }
    }
  }

  if (out.size() != expected_size) return std::nullopt;
  return out;
}

}  // namespace xt::lz4
