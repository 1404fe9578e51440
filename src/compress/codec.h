#pragma once

#include <cstddef>
#include <optional>

#include "common/bytes.h"

namespace xt {

/// Body compression policy, mirroring the paper Section 4.1: compression is
/// a configurable option; bodies at or above the threshold (1 MB by default)
/// are LZ4-compressed when inserted into the object store and decompressed
/// when fetched into receive buffers. Both fields are the paper's ablation
/// hooks. A body at the threshold is compressed only when its first LZ4
/// window (64 KB) shrinks by at least 1/16 (lz4::compress_if_worthwhile);
/// otherwise the sender gives up after that window and ships it raw, since
/// its sender thread would spend more on LZ4 than the smaller put saves
/// (DESIGN.md §4 item 5).
struct CompressionConfig {
  bool enabled = true;
  std::size_t threshold_bytes = 1u << 20;  // 1 MB, the paper's default

  /// Whether maybe_compress runs LZ4 on a body of `size` bytes: compression
  /// on and the body at or above the threshold.
  [[nodiscard]] bool attempts(std::size_t size) const {
    return enabled && size >= threshold_bytes;
  }
};

/// Result of maybe_compress: the (possibly compressed) payload plus the
/// metadata the message header must carry to undo it.
struct EncodedBody {
  Payload data;
  bool compressed = false;
  std::size_t uncompressed_size = 0;
};

/// Compress `body` if the policy says so: the config attempts it and its
/// first window is worth compressing. Falls back to the original bytes,
/// zero-copy, when the first window does not pay or the whole body would not
/// shrink. The endpoint that calls it records the `xt_codec_*` series.
[[nodiscard]] EncodedBody maybe_compress(const Payload& body,
                                         const CompressionConfig& config);

/// Undo maybe_compress. Returns nullopt on corrupt data.
[[nodiscard]] std::optional<Payload> maybe_decompress(const Payload& data,
                                                      bool compressed,
                                                      std::size_t uncompressed_size);

}  // namespace xt
