// Fuzz target for decode_weight_frame, the decoder that sees every weights
// broadcast an explorer receives. An input is one weight frame (DESIGN.md
// §11).
//
// The frame is decoded twice: without a base, and against the fixed base
// blob below, against which the corpus' delta and top-k frames were encoded.
// A frame that decodes has a header peek_weight_frame accepts. A standalone
// frame decodes the same either way; a base-referencing one never decodes
// without its base. A decoded blob must be exactly the header's raw_size
// bytes, and nn::Mlp::deserialize must accept it. A decoded fp32 keyframe
// must encode again to the input bytes.
//
// test_weight_codec links this function and replays
// tests/fuzz/corpus/weight_frame plus seeded mutations of it under the
// sanitizers; a clang build with -DXT_FUZZ=ON builds it as the libFuzzer
// binary fuzz_weight_frame.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "compress/weight_codec.h"
#include "nn/mlp.h"
#include "serial/binio.h"

namespace xt {

/// The Mlp::serialize blob of a net with 4 inputs, 6 relu units and 3 tanh
/// units. Its entries are small multiples of 1/8, computed without an Rng so
/// that every toolchain builds the same bytes.
Bytes weight_frame_fuzz_base() {
  struct Layer {
    std::uint64_t rows;
    std::uint64_t cols;
    nn::Activation activation;
  };
  BinWriter w;
  w.u64(4);
  w.u32(2);
  int k = 0;
  const auto tensor = [&](std::uint64_t count) {
    std::vector<float> values(count);
    for (float& v : values) v = static_cast<float>(k++ * 37 % 19 - 9) / 8.0f;
    w.f32_vec(values);
  };
  for (const Layer& layer : {Layer{4, 6, nn::Activation::kRelu},
                             Layer{6, 3, nn::Activation::kTanh}}) {
    w.u64(layer.rows);
    w.u64(layer.cols);
    w.u8(static_cast<std::uint8_t>(layer.activation));
    tensor(layer.rows * layer.cols);
    tensor(layer.cols);
  }
  return w.take();
}

}  // namespace xt

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  static const xt::Bytes base = xt::weight_frame_fuzz_base();
  const xt::Bytes frame(data, data + size);
  const auto plain = xt::decode_weight_frame(frame, nullptr);
  const auto based = xt::decode_weight_frame(frame, &base);
  if (!plain && !based) return 0;

  const auto info = xt::peek_weight_frame(frame);
  if (!info) std::abort();
  if (xt::weight_codec_uses_base(info->codec) ? plain.has_value() : plain != based) {
    std::abort();
  }
  const xt::Bytes& blob = *based;
  if (blob.size() != info->raw_size || !xt::nn::Mlp::deserialize(blob)) std::abort();

  // fp32 frames are keyframes: the header allows no other kind.
  if (info->codec == xt::WeightCodec::kFp32) {
    const auto again = xt::encode_weight_frame(
        blob, info->version, xt::WeightSyncConfig{}, true, nullptr, 0);
    if (!again || again->payload != frame) std::abort();
  }
  return 0;
}
