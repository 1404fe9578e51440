#pragma once

#include <cstddef>
#include <optional>

#include "common/bytes.h"

namespace xt::lz4 {

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

/// Decompress an LZ4 block produced by compress(). `expected_size` is the
/// exact original size (we always transmit it in the message header, the
/// same way the paper's framework knows body sizes). Returns nullopt on any
/// malformed input (truncated sequence, offset out of range, size mismatch).
[[nodiscard]] std::optional<Bytes> decompress(const Bytes& input,
                                              std::size_t expected_size);

}  // namespace xt::lz4
