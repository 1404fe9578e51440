#include "compress/codec.h"

#include "common/clock.h"
#include "compress/lz4.h"

namespace xt {

EncodedBody maybe_compress(const Payload& body, const CompressionConfig& config,
                           const CodecInstruments* instruments) {
  EncodedBody out;
  out.uncompressed_size = body->size();
  if (instruments != nullptr && instruments->bytes_in != nullptr) {
    instruments->bytes_in->inc(body->size());
  }
  if (!config.enabled || body->size() < config.threshold_bytes) {
    out.data = body;
    out.compressed = false;
    if (instruments != nullptr && instruments->bytes_out != nullptr) {
      instruments->bytes_out->inc(body->size());
    }
    return out;
  }
  const Stopwatch clock;
  std::optional<Bytes> packed = lz4::compress_if_worthwhile(*body);
  if (instruments != nullptr && instruments->compress_ms != nullptr) {
    instruments->compress_ms->observe(clock.elapsed_ms());
  }
  if (!packed || packed->size() >= body->size()) {
    // Not worth it or incompressible: ship the original, zero-copy.
    out.data = body;
    out.compressed = false;
    if (instruments != nullptr && instruments->bytes_out != nullptr) {
      instruments->bytes_out->inc(body->size());
    }
    return out;
  }
  if (instruments != nullptr) {
    if (instruments->bytes_out != nullptr) instruments->bytes_out->inc(packed->size());
    if (instruments->messages_compressed != nullptr) {
      instruments->messages_compressed->inc();
    }
  }
  out.data = make_payload(std::move(*packed));
  out.compressed = true;
  return out;
}

std::optional<Payload> maybe_decompress(const Payload& data, bool compressed,
                                        std::size_t uncompressed_size,
                                        const CodecInstruments* instruments) {
  if (!compressed) return data;
  const Stopwatch clock;
  auto restored = lz4::decompress(*data, uncompressed_size);
  if (instruments != nullptr && instruments->decompress_ms != nullptr) {
    instruments->decompress_ms->observe(clock.elapsed_ms());
  }
  if (!restored) return std::nullopt;
  return make_payload(std::move(*restored));
}

}  // namespace xt
