#include "compress/codec.h"

#include "compress/lz4.h"

namespace xt {

EncodedBody maybe_compress(const Payload& body, const CompressionConfig& config) {
  EncodedBody out;
  out.data = body;
  out.uncompressed_size = body->size();
  if (!config.attempts(body->size())) return out;
  std::optional<Bytes> packed = lz4::compress_if_worthwhile(*body);
  // Not worth it or incompressible: ship the original, zero-copy.
  if (!packed || packed->size() >= body->size()) return out;
  out.data = make_payload(std::move(*packed));
  out.compressed = true;
  return out;
}

std::optional<Payload> maybe_decompress(const Payload& data, bool compressed,
                                        std::size_t uncompressed_size) {
  if (!compressed) return data;
  auto restored = lz4::decompress(*data, uncompressed_size);
  if (!restored) return std::nullopt;
  return make_payload(std::move(*restored));
}

}  // namespace xt
