#pragma once

#include <cstddef>
#include <optional>

#include "common/bytes.h"

namespace xt::lz4 {

/// One LZ4 window: the farthest a match offset reaches back. The first
/// window of a body is what compress_if_worthwhile judges it by.
inline constexpr std::size_t kWindowBytes = std::size_t{1} << 16;

/// Worst-case compressed size for an input of `n` bytes (mirrors
/// LZ4_compressBound): incompressible data expands slightly.
[[nodiscard]] std::size_t compress_bound(std::size_t n);

/// Compress `input` into the LZ4 block format. Always succeeds; the output
/// is at most compress_bound(input.size()) bytes.
///
/// This is a from-scratch greedy compressor in the spirit of the LZ4 fast
/// path: 4-byte hashes into a 64Ki-entry per-thread position table, min-match
/// of 4, token/extended-length encoding, 16-bit backward offsets. Like
/// reference LZ4 it lengthens its search step after every 64 consecutive
/// failed probes (skip acceleration), so incompressible input is crossed in
/// strides instead of with a hash probe per byte, and it extends matches
/// eight bytes at a time.
[[nodiscard]] Bytes compress(const Bytes& input);

/// The same single pass as compress(), but it gives up once it has covered
/// the first kWindowBytes of `input` (all of a shorter input) unless that
/// prefix shrank by at least 1/16; pending literals count at their raw size.
/// Returns nullopt when it gave up, and otherwise exactly compress(input).
/// The rule reads only the bytes, so the same body always gets the same
/// answer, and a body that does not pay costs one window of work.
[[nodiscard]] std::optional<Bytes> compress_if_worthwhile(const Bytes& input);

/// Decompress an LZ4 block produced by compress(). `expected_size` is the
/// exact original size (we always transmit it in the message header, the
/// same way the paper's framework knows body sizes). Returns nullopt on any
/// malformed input (truncated sequence, offset out of range, size mismatch),
/// and before allocating when `expected_size` is more than any block of
/// `input.size()` bytes can encode.
[[nodiscard]] std::optional<Bytes> decompress(const Bytes& input,
                                              std::size_t expected_size);

}  // namespace xt::lz4
