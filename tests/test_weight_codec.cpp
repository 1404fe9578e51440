// Weight codec layer (DESIGN.md §11): per-codec round-trip properties, the
// one weight-blob reader that Mlp and the codec share, encoder/decoder
// session protocol (delta chains, keyframe recovery, lazy broadcast
// staleness bound), and the decoder's fuzz target replayed over its corpus
// and seeded mutations of it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "compress/weight_codec.h"
#include "nn/mlp.h"
#include "obs/catalog.h"
#include "serial/binio.h"

// tests/fuzz/weight_frame_fuzz.cpp
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size);

namespace xt {

Bytes weight_frame_fuzz_base();  // tests/fuzz/weight_frame_fuzz.cpp

namespace {

Bytes random_blob(std::uint64_t seed, std::size_t input_dim = 6,
                  std::vector<nn::LayerSpec> specs = {{8, nn::Activation::kRelu},
                                                      {5, nn::Activation::kTanh}}) {
  Rng rng(seed);
  nn::Mlp net(input_dim, std::move(specs), rng);
  return net.serialize();
}

std::vector<float> blob_floats(const Bytes& blob) {
  auto net = nn::Mlp::deserialize(blob);
  EXPECT_TRUE(net.has_value());
  std::vector<float> out;
  for (nn::Matrix* m : net->parameters()) {
    out.insert(out.end(), m->data().begin(), m->data().end());
  }
  return out;
}

/// Perturb every parameter of `blob` by uniform noise of magnitude `eps`.
Bytes perturb(const Bytes& blob, double eps, std::uint64_t seed) {
  auto net = nn::Mlp::deserialize(blob);
  EXPECT_TRUE(net.has_value());
  Rng rng(seed);
  for (nn::Matrix* m : net->parameters()) {
    for (float& v : m->data()) {
      v += static_cast<float>((rng.uniform() * 2.0 - 1.0) * eps);
    }
  }
  return net->serialize();
}

double max_error(const Bytes& a, const Bytes& b) {
  const auto fa = blob_floats(a);
  const auto fb = blob_floats(b);
  EXPECT_EQ(fa.size(), fb.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < fa.size(); ++i) {
    worst = std::max(worst, std::fabs(static_cast<double>(fa[i]) - fb[i]));
  }
  return worst;
}

double max_abs(const Bytes& blob) {
  double worst = 0.0;
  for (float v : blob_floats(blob)) worst = std::max(worst, std::fabs(double(v)));
  return worst;
}

WeightSyncConfig config_for(WeightCodec codec) {
  WeightSyncConfig config;
  config.codec = codec;
  return config;
}

/// The header of a frame a session published.
WeightFrameInfo header_of(const Payload& frame) {
  const auto info = peek_weight_frame(*frame);
  EXPECT_TRUE(info.has_value());
  return info.value_or(WeightFrameInfo{});
}

Bytes must_encode_keyframe(const Bytes& blob, WeightCodec codec,
                           std::uint32_t version = 1) {
  auto frame =
      encode_weight_frame(blob, version, config_for(codec), true, nullptr, 0);
  EXPECT_TRUE(frame.has_value());
  return frame->payload;
}

// ---------------------------------------------------------------------------
// Round-trip properties per codec.
// ---------------------------------------------------------------------------

TEST(WeightCodecRoundTrip, Fp32IsBitExact) {
  const Bytes blob = random_blob(1);
  const Bytes payload = must_encode_keyframe(blob, WeightCodec::kFp32);
  EXPECT_TRUE(peek_weight_frame(payload).has_value());
  const auto decoded = decode_weight_frame(payload, nullptr);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, blob);  // byte-identical, not just tolerance-close
}

TEST(WeightCodecRoundTrip, Fp16WithinHalfPrecisionTolerance) {
  const Bytes blob = random_blob(2);
  const auto decoded =
      decode_weight_frame(must_encode_keyframe(blob, WeightCodec::kFp16), nullptr);
  ASSERT_TRUE(decoded.has_value());
  // Half has a 10-bit mantissa: relative error <= 2^-11 of the magnitude.
  EXPECT_LE(max_error(blob, *decoded), max_abs(blob) * std::pow(2.0, -11) + 1e-9);
  // Structure survives: the decoded blob still deserializes as the same net.
  auto net = nn::Mlp::deserialize(*decoded);
  ASSERT_TRUE(net.has_value());
  EXPECT_EQ(net->input_dim(), 6u);
}

TEST(WeightCodecRoundTrip, Bf16WithinBfloatTolerance) {
  const Bytes blob = random_blob(3);
  const auto decoded =
      decode_weight_frame(must_encode_keyframe(blob, WeightCodec::kBf16), nullptr);
  ASSERT_TRUE(decoded.has_value());
  // bfloat16 keeps 7 mantissa bits: relative error <= 2^-8.
  EXPECT_LE(max_error(blob, *decoded), max_abs(blob) * std::pow(2.0, -8) + 1e-9);
}

TEST(WeightCodecRoundTrip, Int8WithinQuantizationStep) {
  // A net big enough that the fixed frame/structure overhead is noise.
  const Bytes blob = random_blob(4, 32,
                                 {{64, nn::Activation::kRelu},
                                  {32, nn::Activation::kTanh}});
  const Bytes payload = must_encode_keyframe(blob, WeightCodec::kInt8);
  const auto decoded = decode_weight_frame(payload, nullptr);
  ASSERT_TRUE(decoded.has_value());
  // Symmetric per-tensor scale = max_abs/127; rounding error <= scale/2.
  EXPECT_LE(max_error(blob, *decoded), max_abs(blob) / 127.0 * 0.5 + 1e-9);
  // And the frame is materially smaller than fp32.
  EXPECT_LT(payload.size(), blob.size() / 3);
}

TEST(WeightCodecRoundTrip, DeltaReconstructsAgainstBase) {
  const Bytes base_blob = random_blob(5);
  const Bytes base_recon = *decode_weight_frame(
      must_encode_keyframe(base_blob, WeightCodec::kDeltaInt8), nullptr);
  const Bytes next = perturb(base_blob, 0.02, 99);
  auto frame = encode_weight_frame(next, 2, config_for(WeightCodec::kDeltaInt8),
                                   false, &base_recon, 1);
  ASSERT_TRUE(frame.has_value());
  EXPECT_FALSE(frame->keyframe);
  EXPECT_EQ(peek_weight_frame(frame->payload)->base_version, 1u);
  const auto decoded = decode_weight_frame(frame->payload, &base_recon);
  ASSERT_TRUE(decoded.has_value());
  // Delta magnitude <= perturbation bound, so error <= 0.02/127 * 0.5-ish.
  EXPECT_LE(max_error(next, *decoded), 0.04 / 127.0 + 1e-9);
  // The decoder's reconstruction matches the encoder's ring copy bit-exactly
  // (no cross-explorer drift).
  EXPECT_EQ(*decoded, frame->reconstructed);
  // Decoding against the wrong base is rejected, not misapplied.
  EXPECT_FALSE(decode_weight_frame(frame->payload, nullptr).has_value());
  const Bytes wrong_structure = random_blob(6, 7, {{9, nn::Activation::kRelu}});
  EXPECT_FALSE(decode_weight_frame(frame->payload, &wrong_structure).has_value());
}

TEST(WeightCodecRoundTrip, TopKCarriesLargestChangesExactly) {
  const Bytes base_blob = random_blob(7);
  const Bytes next = perturb(base_blob, 0.1, 100);
  WeightSyncConfig config = config_for(WeightCodec::kTopK);
  config.topk_fraction = 0.25;
  auto frame = encode_weight_frame(next, 2, config, false, &base_blob, 1);
  ASSERT_TRUE(frame.has_value());
  const auto decoded = decode_weight_frame(frame->payload, &base_blob);
  ASSERT_TRUE(decoded.has_value());
  const auto base_f = blob_floats(base_blob);
  const auto next_f = blob_floats(next);
  const auto out_f = blob_floats(*decoded);
  std::size_t updated = 0;
  for (std::size_t i = 0; i < out_f.size(); ++i) {
    if (out_f[i] == base_f[i]) continue;
    EXPECT_EQ(out_f[i], next_f[i]);  // carried entries are exact f32 values
    ++updated;
  }
  EXPECT_GT(updated, 0u);
  EXPECT_LT(updated, out_f.size() / 2);  // sparsification actually happened
  EXPECT_LT(frame->payload.size(), base_blob.size());
}

TEST(WeightCodecRoundTrip, AllCodecsSurviveRandomArchitectures) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t input = 1 + rng.uniform_index(12);
    std::vector<nn::LayerSpec> specs;
    const int depth = 1 + static_cast<int>(rng.uniform_index(3));
    for (int i = 0; i < depth; ++i) {
      specs.push_back({1 + static_cast<std::size_t>(rng.uniform_index(9)),
                       nn::Activation::kRelu});
    }
    const Bytes blob = random_blob(1000 + trial, input, specs);
    const Bytes prev = perturb(blob, 0.05, 2000 + trial);
    for (std::uint8_t c = 0; c < kWeightCodecCount; ++c) {
      const auto codec = static_cast<WeightCodec>(c);
      WeightSyncConfig config = config_for(codec);
      const bool keyframe = !weight_codec_uses_base(codec);
      auto frame = encode_weight_frame(blob, 2, config, keyframe,
                                       keyframe ? nullptr : &prev, 1);
      ASSERT_TRUE(frame.has_value()) << weight_codec_name(codec);
      EXPECT_EQ(frame->payload.capacity(), frame->payload.size())
          << weight_codec_name(codec);
      const auto decoded =
          decode_weight_frame(frame->payload, keyframe ? nullptr : &prev);
      ASSERT_TRUE(decoded.has_value()) << weight_codec_name(codec);
      EXPECT_EQ(*decoded, frame->reconstructed) << weight_codec_name(codec);
      // Base-referencing codecs can at worst keep a base entry (top-k drops
      // small changes), so their error is bounded by the perturbation that
      // separates blob from prev; standalone codecs by their precision.
      const double bound = weight_codec_uses_base(codec)
                               ? 0.051
                               : std::max(0.5, max_abs(blob)) * 0.02;
      EXPECT_LE(max_error(blob, *decoded), bound) << weight_codec_name(codec);
    }
  }
}

TEST(WeightCodec, EveryCodecAllocatesExactlyItsFrame) {
  // ppo_sync_2m's policy: 128 inputs, two hidden layers of 128, 4 actions.
  const Bytes blob = random_blob(21, 128,
                                 {{128, nn::Activation::kRelu},
                                  {128, nn::Activation::kRelu},
                                  {4, nn::Activation::kIdentity}});
  const Bytes prev = perturb(blob, 0.01, 22);
  const std::size_t pinned[kWeightCodecCount] = {134'247, 67'167, 67'167,
                                                 33'651, 33'651, 0};
  for (std::uint8_t c = 0; c < kWeightCodecCount; ++c) {
    const auto codec = static_cast<WeightCodec>(c);
    SCOPED_TRACE(weight_codec_name(codec));
    const bool keyframe = !weight_codec_uses_base(codec);
    for (const double fraction : {0.001, 0.1, 1.0}) {
      WeightSyncConfig config = config_for(codec);
      config.topk_fraction = fraction;
      const auto frame = encode_weight_frame(blob, 2, config, keyframe,
                                             keyframe ? nullptr : &prev, 1);
      ASSERT_TRUE(frame.has_value());
      EXPECT_EQ(frame->payload.capacity(), frame->payload.size());
      if (pinned[c] != 0) {
        EXPECT_EQ(frame->payload.size(), pinned[c]);
      }
    }
  }
}

TEST(WeightCodec, NonMlpBlobsAreNotEncoded) {
  // Every algorithm's weights are Mlp::serialize output; anything else is a
  // bug upstream, and no frame is made of it.
  const Bytes blob = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_FALSE(encode_weight_frame(blob, 3, config_for(WeightCodec::kInt8), true,
                                   nullptr, 0)
                   .has_value());
  MetricsRegistry registry;
  WeightEncoderSession enc(config_for(WeightCodec::kFp32), registry, 0);
  EXPECT_FALSE(enc.encode(blob, 1, {"E0"}, true).has_value());
  EXPECT_FALSE(enc.encode_keyframe(blob, 1).has_value());
}

TEST(WeightCodec, PeekExposesHeaderFields) {
  const Bytes blob = random_blob(8);
  auto frame =
      encode_weight_frame(blob, 42, config_for(WeightCodec::kFp16), true, nullptr, 0);
  ASSERT_TRUE(frame.has_value());
  const auto info = peek_weight_frame(frame->payload);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->codec, WeightCodec::kFp16);
  EXPECT_EQ(info->version, 42u);
  EXPECT_EQ(info->base_version, 0u);
  EXPECT_TRUE(info->keyframe);
  EXPECT_EQ(info->raw_size, blob.size());
  EXPECT_FALSE(peek_weight_frame(blob).has_value());  // raw Mlp blobs are not frames
}

// ---------------------------------------------------------------------------
// One reader of the weight blob (nn::MlpShape).
// ---------------------------------------------------------------------------

/// The blob of one layer, fed by `input_dim`, with the given tensors.
Bytes one_layer_blob(std::uint64_t input_dim, std::uint64_t rows, std::uint64_t cols,
                     std::uint8_t activation, const std::vector<float>& weight,
                     const std::vector<float>& bias) {
  BinWriter w;
  w.u64(input_dim);
  w.u32(1);
  w.u64(rows);
  w.u64(cols);
  w.u8(activation);
  w.f32_vec(weight);
  w.f32_vec(bias);
  return w.take();
}

bool encodes_with_any_codec(const Bytes& blob) {
  for (std::uint8_t c = 0; c < kWeightCodecCount; ++c) {
    const auto codec = static_cast<WeightCodec>(c);
    if (encode_weight_frame(blob, 1, config_for(codec), true, nullptr, 0)) return true;
  }
  return false;
}

// Blobs that Mlp::deserialize and the weight codec once judged by different
// rules. Each is rejected by both, and a valid blob still round-trips byte
// for byte through both.
TEST(WeightBlob, MlpAndCodecRejectTheSameBlobs) {
  const Bytes valid = random_blob(40);
  // rows * cols wraps to 0, so an empty weight vector used to match it.
  const std::uint64_t huge = std::uint64_t{1} << 63;
  const Bytes wrapping = one_layer_blob(huge, huge, 2, 0, {}, {0.5f, -0.5f});
  Bytes unknown_activation = valid;
  unknown_activation[8 + 4 + 8 + 8] = 7;  // the first layer's activation byte
  Bytes trailing_byte = valid;
  trailing_byte.push_back(0);
  for (const Bytes& blob : {wrapping, unknown_activation, trailing_byte}) {
    EXPECT_FALSE(nn::Mlp::deserialize(blob).has_value());
    EXPECT_FALSE(encodes_with_any_codec(blob));
  }

  const auto net = nn::Mlp::deserialize(valid);
  ASSERT_TRUE(net.has_value());
  EXPECT_EQ(net->serialize(), valid);
  const auto frame =
      encode_weight_frame(valid, 1, config_for(WeightCodec::kFp32), true, nullptr, 0);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(decode_weight_frame(frame->payload, nullptr), valid);
}

// The rest of the shape rules, checked in the blob parser and in the
// frame's structure segment alike.
TEST(WeightBlob, EveryReaderKeepsTheShapeRules) {
  const Bytes ok = one_layer_blob(2, 2, 1, 0, {1.0f, 2.0f}, {3.0f});
  ASSERT_TRUE(nn::parse_mlp_blob(ok).has_value());
  // Rows other than input_dim, a layer without units, a short weight, a
  // short bias, and 2^32 biases.
  const std::vector<Bytes> broken = {
      one_layer_blob(3, 2, 1, 0, {1.0f, 2.0f}, {3.0f}),
      one_layer_blob(2, 2, 0, 0, {}, {}),
      one_layer_blob(2, 2, 1, 0, {1.0f}, {3.0f}),
      one_layer_blob(2, 2, 1, 0, {1.0f, 2.0f}, {}),
      one_layer_blob(0, 0, std::uint64_t{1} << 32, 0, {}, {}),
  };
  for (const Bytes& blob : broken) {
    EXPECT_FALSE(nn::parse_mlp_blob(blob).has_value());
    EXPECT_FALSE(nn::Mlp::deserialize(blob).has_value());
    EXPECT_FALSE(encodes_with_any_codec(blob));
  }
  // A frame whose structure segment breaks a rule does not decode: the
  // valid frame of `ok` with its structure's rows rewritten to 3.
  auto frame = encode_weight_frame(ok, 1, config_for(WeightCodec::kFp32), true,
                                   nullptr, 0);
  ASSERT_TRUE(frame.has_value());
  ASSERT_TRUE(decode_weight_frame(frame->payload, nullptr).has_value());
  Bytes payload = frame->payload;
  payload[24 + 8 + 4] = 3;  // header, input_dim, layer count, then rows
  EXPECT_FALSE(decode_weight_frame(payload, nullptr).has_value());
}

TEST(WeightCodec, RelativeUpdateNormBehaves) {
  const Bytes blob = random_blob(10);
  EXPECT_NEAR(relative_update_norm(blob, blob), 0.0, 1e-12);
  const Bytes moved = perturb(blob, 0.5, 55);
  EXPECT_GT(relative_update_norm(moved, blob), 0.01);
  const Bytes other_shape = random_blob(11, 9, {{3, nn::Activation::kRelu}});
  EXPECT_TRUE(std::isinf(relative_update_norm(blob, other_shape)));
}

// ---------------------------------------------------------------------------
// Session protocol.
// ---------------------------------------------------------------------------

std::vector<std::string> dsts() { return {"E0", "E1"}; }

/// Observations in a session's histogram on machine 0.
std::uint64_t observations_of(MetricsRegistry& registry, const MetricRow& row) {
  return registry.histogram(row, {0}).count();
}

TEST(WeightSessions, DeltaChainAppliesEndToEnd) {
  WeightSyncConfig config = config_for(WeightCodec::kDeltaInt8);
  config.keyframe_every = 100;  // keep cadence out of the way
  MetricsRegistry registry;
  WeightEncoderSession enc(config, registry, 0);
  WeightDecoderSession dec(registry, 0);

  Bytes blob = random_blob(20);
  std::uint32_t acked = 0;
  for (std::uint32_t v = 1; v <= 6; ++v) {
    blob = perturb(blob, 0.01, 400 + v);
    auto pub = enc.encode(blob, v, dsts(), false);
    ASSERT_TRUE(pub.has_value());
    // First frame (and only it) is a keyframe; later ones chain off acks.
    EXPECT_EQ(header_of(*pub).keyframe, v == 1);
    const auto result = dec.apply(*pub);
    ASSERT_EQ(result.outcome, WeightDecoderSession::Outcome::kApplied);
    EXPECT_EQ(result.version, v);
    acked = v;
    for (const auto& d : dsts()) enc.note_ack(d, acked);
  }
  EXPECT_EQ(registry.total(metric::xt_weights_keyframes_total), 1u);
  EXPECT_EQ(dec.version(), 6u);
}

TEST(WeightSessions, UnackedDestinationForcesKeyframe) {
  WeightSyncConfig config = config_for(WeightCodec::kDeltaInt8);
  config.keyframe_every = 100;
  MetricsRegistry registry;
  WeightEncoderSession enc(config, registry, 0);
  Bytes blob = random_blob(21);
  auto first = enc.encode(blob, 1, dsts(), false);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(header_of(*first).keyframe);
  // Only E0 acks; E1 stays silent -> the next broadcast cannot assume a base.
  enc.note_ack("E0", 1);
  blob = perturb(blob, 0.01, 500);
  auto second = enc.encode(blob, 2, dsts(), false);
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(header_of(*second).keyframe);
  // Once both acked, deltas engage against the *older* commonly-held version.
  enc.note_ack("E0", 2);
  enc.note_ack("E1", 1);
  blob = perturb(blob, 0.01, 501);
  auto third = enc.encode(blob, 3, dsts(), false);
  ASSERT_TRUE(third.has_value());
  EXPECT_FALSE(header_of(*third).keyframe);
  EXPECT_EQ(header_of(*third).base_version, 1u);
}

TEST(WeightSessions, AckLagCountsANeverAckedDestinationAsVersionZero) {
  WeightSyncConfig config = config_for(WeightCodec::kDeltaInt8);
  config.keyframe_every = 3;
  MetricsRegistry registry;
  WeightEncoderSession enc(config, registry, 0);
  Bytes blob = random_blob(24);
  const auto publish = [&](std::uint32_t version) {
    blob = perturb(blob, 0.01, 600 + version);
    ASSERT_TRUE(enc.encode(blob, version, dsts(), false).has_value());
  };
  publish(1);  // the first publish is a cadence keyframe: no observation
  enc.note_ack("E0", 1);
  publish(2);  // E1 never acked, so it counts as 0: lag 2
  enc.note_ack("E1", 1);
  publish(3);  // the common ack is 1: lag 2
  enc.note_ack("E0", 3);
  publish(4);  // E1 still holds the common ack at 1: lag 3
  publish(5);  // every third delta after a keyframe is one: no observation
  const Histogram& lag = registry.histogram(metric::xt_weights_ack_lag, {0});
  EXPECT_EQ(lag.count(), 3u);
  EXPECT_EQ(lag.sum(), 7.0);
  EXPECT_EQ(registry.total(metric::xt_weights_keyframes_total), 3u);
}

TEST(WeightSessions, DroppedIntermediateVersionRecoversViaOlderBase) {
  // A decoder that missed v2 can still apply v3 when v3 was encoded against
  // the commonly-acked v1 — the LAPG-style resilience of delta-vs-last-ack.
  WeightSyncConfig config = config_for(WeightCodec::kDeltaInt8);
  config.keyframe_every = 100;
  MetricsRegistry registry;
  WeightEncoderSession enc(config, registry, 0);
  WeightDecoderSession dec(registry, 0);
  Bytes blob = random_blob(22);
  auto v1 = enc.encode(blob, 1, dsts(), false);
  ASSERT_EQ(dec.apply(*v1).outcome,
            WeightDecoderSession::Outcome::kApplied);
  for (const auto& d : dsts()) enc.note_ack(d, 1);

  blob = perturb(blob, 0.01, 600);
  auto v2 = enc.encode(blob, 2, dsts(), false);  // dropped on the wire
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(header_of(*v2).base_version, 1u);

  blob = perturb(blob, 0.01, 601);
  auto v3 = enc.encode(blob, 3, dsts(), false);  // still encoded vs acked v1
  ASSERT_TRUE(v3.has_value());
  EXPECT_EQ(header_of(*v3).base_version, 1u);
  const auto result = dec.apply(*v3);
  EXPECT_EQ(result.outcome, WeightDecoderSession::Outcome::kApplied);
  EXPECT_EQ(dec.version(), 3u);
}

TEST(WeightSessions, MissingBaseForcesKeyframeRecovery) {
  // A fresh decoder (respawned explorer) receiving a mid-chain delta must
  // signal kNeedKeyframe, and the encoder's keyframe reply must restore it.
  WeightSyncConfig config = config_for(WeightCodec::kDeltaInt8);
  config.keyframe_every = 100;
  MetricsRegistry registry;
  WeightEncoderSession enc(config, registry, 0);
  WeightDecoderSession stale_dec(registry, 0);
  Bytes blob = random_blob(23);
  (void)enc.encode(blob, 1, dsts(), false);
  for (const auto& d : dsts()) enc.note_ack(d, 1);
  blob = perturb(blob, 0.01, 700);
  auto v2 = enc.encode(blob, 2, dsts(), false);
  ASSERT_TRUE(v2.has_value());
  ASSERT_FALSE(header_of(*v2).keyframe);

  const auto miss = stale_dec.apply(*v2);
  EXPECT_EQ(miss.outcome, WeightDecoderSession::Outcome::kNeedKeyframe);

  const auto reply = enc.encode_keyframe(blob, 2);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(header_of(*reply).keyframe);
  const auto recovered = stale_dec.apply(*reply);
  EXPECT_EQ(recovered.outcome, WeightDecoderSession::Outcome::kApplied);
  EXPECT_EQ(stale_dec.version(), 2u);
}

TEST(WeightSessions, KeyframeCadenceIsHonored) {
  WeightSyncConfig config = config_for(WeightCodec::kDeltaInt8);
  config.keyframe_every = 3;
  MetricsRegistry registry;
  WeightEncoderSession enc(config, registry, 0);
  Bytes blob = random_blob(24);
  std::vector<bool> keyframes;
  for (std::uint32_t v = 1; v <= 7; ++v) {
    blob = perturb(blob, 0.01, 800 + v);
    auto pub = enc.encode(blob, v, dsts(), false);
    ASSERT_TRUE(pub.has_value());
    keyframes.push_back(header_of(*pub).keyframe);
    for (const auto& d : dsts()) enc.note_ack(d, v);
  }
  // Publish 1 starts the chain; every 3rd publish is a fresh keyframe.
  const std::vector<bool> expected = {true, false, false, true, false, false, true};
  EXPECT_EQ(keyframes, expected);
}

TEST(WeightSessions, LazyBroadcastSkipsAndHonorsStalenessBound) {
  WeightSyncConfig config = config_for(WeightCodec::kFp16);
  config.lazy_threshold = 0.5;  // huge: everything after the first is "small"
  config.max_staleness = 3;
  MetricsRegistry registry;
  WeightEncoderSession enc(config, registry, 0);
  const Bytes blob = random_blob(25);
  ASSERT_TRUE(enc.encode(blob, 1, dsts(), false).has_value());
  std::uint32_t version = 1;
  // Tiny updates: exactly max_staleness skips, then a forced keyframe.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(
        enc.encode(perturb(blob, 1e-5, 900 + i), ++version, dsts(), false)
            .has_value());
  }
  auto forced = enc.encode(perturb(blob, 1e-5, 950), ++version, dsts(), false);
  ASSERT_TRUE(forced.has_value());
  EXPECT_TRUE(header_of(*forced).keyframe);
  EXPECT_EQ(registry.total(metric::xt_weights_skipped_total), 3u);
  // A genuinely large update is never skipped.
  auto big = enc.encode(perturb(blob, 10.0, 951), ++version, dsts(), false);
  EXPECT_TRUE(big.has_value());
  // force=true bypasses the lazy policy outright (PPO / initial broadcast).
  auto forced2 = enc.encode(perturb(blob, 1e-6, 952), ++version, dsts(), true);
  EXPECT_TRUE(forced2.has_value());
}

TEST(WeightSessions, DecoderRejectsStaleAndCorrupt) {
  MetricsRegistry registry;
  WeightEncoderSession enc(config_for(WeightCodec::kFp16), registry, 0);
  WeightDecoderSession dec(registry, 0);
  const Bytes blob = random_blob(26);
  auto v2 = enc.encode(blob, 2, dsts(), false);
  ASSERT_EQ(dec.apply(*v2).outcome, WeightDecoderSession::Outcome::kApplied);
  auto v1 = enc.encode_keyframe(blob, 1);  // late arrival of an older version
  EXPECT_EQ(dec.apply(*v1).outcome, WeightDecoderSession::Outcome::kStale);
  auto v3 = enc.encode_keyframe(blob, 3);
  Bytes corrupt = **v3;
  corrupt.resize(corrupt.size() / 2);
  EXPECT_EQ(dec.apply(make_payload(std::move(corrupt))).outcome,
            WeightDecoderSession::Outcome::kCorrupt);
  // Version 3 was never applied, so the real frame still lands.
  EXPECT_EQ(dec.apply(*v3).outcome,
            WeightDecoderSession::Outcome::kApplied);
}

// Every weights body is a frame: a raw fp32 blob, or a frame whose magic was
// corrupted, is rejected as corrupt, counted, and moves no version, so the
// explorer asks for a keyframe and the genuine frame still applies.
TEST(WeightSessions, RawBlobAndMagicFlippedFrameAreRejected) {
  MetricsRegistry registry;
  WeightEncoderSession enc(config_for(WeightCodec::kFp16), registry, 0);
  WeightDecoderSession dec(registry, 0);
  const Bytes blob = random_blob(27);
  EXPECT_EQ(dec.apply(make_payload(Bytes(blob))).outcome,
            WeightDecoderSession::Outcome::kCorrupt);
  EXPECT_FALSE(dec.applied_any());
  ASSERT_EQ(dec.apply(*enc.encode_keyframe(blob, 1)).outcome,
            WeightDecoderSession::Outcome::kApplied);

  const auto v2 = enc.encode_keyframe(perturb(blob, 1e-3, 2), 2);
  Bytes flipped = **v2;
  flipped[0] ^= 0x01;
  for (Bytes body : {blob, flipped}) {
    const auto result = dec.apply(make_payload(std::move(body)));
    EXPECT_EQ(result.outcome, WeightDecoderSession::Outcome::kCorrupt);
    EXPECT_EQ(result.fp32, nullptr);
    EXPECT_EQ(dec.version(), 1u);
  }
  EXPECT_EQ(registry.total(metric::xt_weights_decode_failures_total), 3u);

  const auto genuine = dec.apply(*v2);
  EXPECT_EQ(genuine.outcome, WeightDecoderSession::Outcome::kApplied);
  EXPECT_EQ(genuine.version, 2u);
  EXPECT_EQ(dec.version(), 2u);
}

TEST(WeightSessions, InstrumentsCountTheProtocol) {
  MetricsRegistry registry;
  WeightSyncConfig config = config_for(WeightCodec::kInt8);
  config.lazy_threshold = 0.5;
  config.max_staleness = 10;
  WeightEncoderSession enc(config, registry, 0);
  WeightDecoderSession dec(registry, 0);
  const Bytes blob = random_blob(28, 32,
                                 {{64, nn::Activation::kRelu},
                                  {32, nn::Activation::kTanh}});
  auto pub = enc.encode(blob, 1, dsts(), false);
  ASSERT_TRUE(pub.has_value());
  EXPECT_FALSE(enc.encode(perturb(blob, 1e-6, 1000), 2, dsts(), false).has_value());
  ASSERT_EQ(dec.apply(*pub).outcome,
            WeightDecoderSession::Outcome::kApplied);
  // A torn frame of a *newer* version (stateless encode: the session counters
  // must only reflect the decoder's failure, not a second publish).
  auto torn = encode_weight_frame(blob, 3, config, true, nullptr, 0);
  ASSERT_TRUE(torn.has_value());
  Bytes corrupt = torn->payload;
  corrupt.resize(corrupt.size() - 3);
  EXPECT_EQ(dec.apply(make_payload(std::move(corrupt))).outcome,
            WeightDecoderSession::Outcome::kCorrupt);

  const Counter& bytes = registry.counter(metric::xt_weights_bytes_total, {"int8", 0});
  EXPECT_EQ(registry.total(metric::xt_weights_skipped_total), 1u);
  EXPECT_EQ(registry.total(metric::xt_weights_raw_bytes_total), 2 * blob.size());
  EXPECT_GT(bytes.value(), 0u);
  EXPECT_LT(bytes.value(), blob.size() / 2);
  EXPECT_EQ(registry.total(metric::xt_weights_keyframes_total), 1u);
  EXPECT_EQ(registry.total(metric::xt_weights_decode_failures_total), 1u);
  EXPECT_EQ(observations_of(registry, metric::xt_weights_encode_ms), 1u);
  // The applied frame and the torn one.
  EXPECT_EQ(observations_of(registry, metric::xt_weights_decode_ms), 2u);
  EXPECT_GE(registry.quantile(metric::xt_weights_compression_ratio, 0.5), 2.0);
}

TEST(WeightSessions, KeyframeRepliesCountTheirRawBytes) {
  // One fp32 broadcast and three keyframe replies: the raw and wire tallies
  // differ only by the blob's and the frame's headers, so their ratio is 1
  // within that (it read 0.25 when replies went uncounted).
  MetricsRegistry registry;
  WeightEncoderSession enc(config_for(WeightCodec::kFp32), registry, 0);
  const Bytes blob = random_blob(31);
  const auto broadcast = enc.encode(blob, 1, dsts(), false);
  ASSERT_TRUE(broadcast.has_value());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(enc.encode_keyframe(blob, 1).has_value());
  const double raw =
      static_cast<double>(registry.total(metric::xt_weights_raw_bytes_total));
  const double wire =
      static_cast<double>(registry.total(metric::xt_weights_bytes_total));
  EXPECT_EQ(raw, 4.0 * static_cast<double>(blob.size()));
  EXPECT_EQ(wire, 4.0 * static_cast<double>((*broadcast)->size()));
  EXPECT_NEAR(raw / wire, 1.0, 0.05);
}

// ---------------------------------------------------------------------------
// decode_weight_frame fuzz target (tests/fuzz/weight_frame_fuzz.cpp). It
// aborts on a broken invariant, so a crash here is a failure.
// ---------------------------------------------------------------------------

void run_fuzz_target(const Bytes& input) {
  (void)LLVMFuzzerTestOneInput(input.data(), input.size());
}

std::vector<std::pair<std::string, Bytes>> weight_frame_corpus() {
  std::vector<std::pair<std::string, Bytes>> entries;
  const std::filesystem::path dir =
      std::filesystem::path(XT_SOURCE_DIR) / "tests/fuzz/corpus/weight_frame";
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(file.path(), std::ios::binary);
    entries.emplace_back(file.path().filename().string(),
                         Bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>()));
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

TEST(WeightFrameFuzz, CorpusReplays) {
  const Bytes base = weight_frame_fuzz_base();
  std::vector<bool> codec_seen(kWeightCodecCount, false);
  for (const auto& [name, frame] : weight_frame_corpus()) {
    SCOPED_TRACE(name);
    run_fuzz_target(frame);
    // ok_* entries are frames encode_weight_frame built, one per codec, the
    // base-referencing ones against the fuzz target's base; bad_* entries
    // each break one rule of the frame.
    if (name.rfind("ok_", 0) == 0) {
      EXPECT_TRUE(decode_weight_frame(frame, &base).has_value());
      codec_seen[static_cast<std::size_t>(peek_weight_frame(frame)->codec)] = true;
    } else {
      EXPECT_FALSE(decode_weight_frame(frame, &base).has_value());
      EXPECT_FALSE(decode_weight_frame(frame, nullptr).has_value());
    }
  }
  EXPECT_EQ(std::count(codec_seen.begin(), codec_seen.end(), true), kWeightCodecCount);
}

TEST(WeightFrameFuzz, SeededMutationsOfCorpus) {
  // Over every well-formed corpus frame: each strict prefix, which must be
  // rejected, never misread; bit flips anywhere and in the header and
  // structure region; and every header byte forced to 0x00 and 0xFF.
  const Bytes base = weight_frame_fuzz_base();
  Rng rng(59);
  std::size_t cases = 0;
  const auto check = [&](const Bytes& input) {
    run_fuzz_target(input);
    ++cases;
  };
  for (const auto& [name, frame] : weight_frame_corpus()) {
    if (name.rfind("ok_", 0) != 0) continue;
    SCOPED_TRACE(name);
    for (std::size_t len = 0; len < frame.size(); ++len) {
      const Bytes prefix(frame.begin(),
                         frame.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_FALSE(decode_weight_frame(prefix, &base).has_value());
      check(prefix);
    }
    for (int i = 0; i < 400; ++i) {
      Bytes mangled = frame;
      const std::size_t region = i % 2 == 0 ? mangled.size() : 96;
      for (int flips = 1 + static_cast<int>(rng.uniform_index(3)); flips > 0; --flips) {
        mangled[rng.uniform_index(std::min(region, mangled.size()))] ^=
            static_cast<std::uint8_t>(1u << rng.uniform_index(8));
      }
      check(mangled);
    }
    for (std::size_t at = 0; at < 24; ++at) {
      for (const std::uint8_t value : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
        Bytes forced = frame;
        forced[at] = value;
        check(forced);
      }
    }
  }
  EXPECT_GT(cases, 3'000u);
}

TEST(WeightCodec, NameParsingRoundTrips) {
  for (std::uint8_t c = 0; c < kWeightCodecCount; ++c) {
    const auto codec = static_cast<WeightCodec>(c);
    const auto parsed = parse_weight_codec(weight_codec_name(codec));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, codec);
  }
  EXPECT_FALSE(parse_weight_codec("fp64").has_value());
  EXPECT_FALSE(parse_weight_codec("").has_value());
}

}  // namespace
}  // namespace xt
