#include "compress/weight_codec.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/clock.h"
#include "nn/mlp.h"
#include "obs/catalog.h"
#include "serial/binio.h"

namespace xt {
namespace {

// 'XTWC' little-endian: distinguishes codec frames from raw Mlp blobs, whose
// first bytes are an input_dim u64 (realistic dims never collide with this).
constexpr std::uint32_t kWeightFrameMagic = 0x43575458u;
constexpr std::uint8_t kWeightFrameVersion = 1;
constexpr std::uint8_t kFlagKeyframe = 0x01;
constexpr std::size_t kFrameHeaderBytes = 4 + 1 + 1 + 1 + 1 + 4 + 4 + 8;

// ---------------------------------------------------------------------------
// Scalar conversions.
// ---------------------------------------------------------------------------

std::uint16_t f32_to_f16(float value) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  const auto sign = static_cast<std::uint16_t>((bits >> 16) & 0x8000u);
  const std::uint32_t abs = bits & 0x7fffffffu;
  if (abs >= 0x7f800000u) {  // inf / nan
    const std::uint16_t mant = abs > 0x7f800000u ? 0x0200u : 0u;
    return static_cast<std::uint16_t>(sign | 0x7c00u | mant);
  }
  if (abs >= 0x47800000u) return static_cast<std::uint16_t>(sign | 0x7c00u);
  if (abs < 0x38800000u) {  // subnormal half (or zero)
    const int shift = 126 - static_cast<int>(abs >> 23);
    if (shift > 24) return sign;
    const std::uint32_t mant = (abs & 0x007fffffu) | 0x00800000u;
    std::uint32_t out = mant >> shift;
    const std::uint32_t rem = mant & ((1u << shift) - 1u);
    const std::uint32_t half = 1u << (shift - 1);
    if (rem > half || (rem == half && (out & 1u))) ++out;
    return static_cast<std::uint16_t>(sign | out);
  }
  std::uint32_t out = ((abs >> 13) & 0x3ffu) | (((abs >> 23) - 112u) << 10);
  const std::uint32_t rem = abs & 0x1fffu;
  // Round to nearest even; a mantissa carry correctly bumps the exponent.
  if (rem > 0x1000u || (rem == 0x1000u && (out & 1u))) ++out;
  return static_cast<std::uint16_t>(sign | out);
}

float f16_to_f32(std::uint16_t h) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(h) & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  const std::uint32_t mant = h & 0x3ffu;
  std::uint32_t bits;
  if (exp == 0x1fu) {
    bits = sign | 0x7f800000u | (mant << 13);
  } else if (exp != 0) {
    bits = sign | ((exp + 112u) << 23) | (mant << 13);
  } else if (mant == 0) {
    bits = sign;
  } else {
    int p = 9;
    while ((mant & (1u << p)) == 0) --p;
    const auto e = static_cast<std::uint32_t>(p + 103);
    const std::uint32_t m = (mant << (10 - p)) & 0x3ffu;
    bits = sign | (e << 23) | (m << 13);
  }
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

std::uint16_t f32_to_bf16(float value) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  if ((bits & 0x7f800000u) == 0x7f800000u) {  // inf / nan: truncate, keep nan quiet
    auto out = static_cast<std::uint16_t>(bits >> 16);
    if ((bits & 0x007fffffu) != 0) out |= 0x0040u;
    return out;
  }
  const std::uint32_t rounding = 0x7fffu + ((bits >> 16) & 1u);
  return static_cast<std::uint16_t>((bits + rounding) >> 16);
}

float bf16_to_f32(std::uint16_t h) {
  const std::uint32_t bits = static_cast<std::uint32_t>(h) << 16;
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

float max_abs_of(const std::vector<float>& v) {
  float m = 0.0f;
  for (float x : v) m = std::max(m, std::fabs(x));
  return m;
}

std::int8_t quantize_i8(float v, float inv_scale) {
  const float scaled = v * inv_scale;
  const float clamped = std::min(127.0f, std::max(-127.0f, scaled));
  return static_cast<std::int8_t>(std::lrintf(clamped));
}

// ---------------------------------------------------------------------------
// Per-tensor frame coding. Encoders append to the frame and leave in
// `recon` the values the decoder will reconstruct; decoders read the frame
// in the same order.
// ---------------------------------------------------------------------------

void encode_tensor_fp32(const std::vector<float>& cur, BinWriter& frame,
                        std::vector<float>* recon) {
  frame.raw(cur.data(), cur.size() * sizeof(float));
  *recon = cur;
}

template <typename Narrow, typename Widen>
void encode_tensor_16(const std::vector<float>& cur, Narrow narrow, Widen widen,
                      BinWriter& frame, std::vector<float>* recon) {
  recon->resize(cur.size());
  for (std::size_t i = 0; i < cur.size(); ++i) {
    const std::uint16_t h = narrow(cur[i]);
    frame.u16(h);
    (*recon)[i] = widen(h);
  }
}

/// Shared by kInt8 (values quantized absolutely) and kDeltaInt8 (the caller
/// passes cur - base and adds the base back into recon).
void encode_tensor_i8(const std::vector<float>& values, BinWriter& frame,
                      std::vector<float>* recon) {
  const float max_abs = max_abs_of(values);
  const float scale = max_abs / 127.0f;
  frame.f32(scale);
  recon->resize(values.size());
  if (scale == 0.0f) {
    for (std::size_t i = 0; i < values.size(); ++i) frame.u8(0);
    std::fill(recon->begin(), recon->end(), 0.0f);
    return;
  }
  const float inv_scale = 1.0f / scale;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::int8_t q = quantize_i8(values[i], inv_scale);
    frame.u8(static_cast<std::uint8_t>(q));
    (*recon)[i] = static_cast<float>(q) * scale;
  }
}

/// How many of a tensor's n entries a top-k frame carries.
std::size_t topk_count(std::size_t n, double fraction) {
  const auto k = static_cast<std::size_t>(std::ceil(fraction * static_cast<double>(n)));
  return std::min(n, std::max<std::size_t>(1, k));
}

void encode_tensor_topk(const std::vector<float>& cur, const std::vector<float>& base,
                        double fraction, BinWriter& frame, std::vector<float>* recon) {
  const std::size_t n = cur.size();
  const std::size_t k = topk_count(n, fraction);
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::nth_element(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k) - 1,
                   order.end(), [&](std::uint32_t a, std::uint32_t b) {
                     return std::fabs(cur[a] - base[a]) > std::fabs(cur[b] - base[b]);
                   });
  order.resize(k);
  std::sort(order.begin(), order.end());
  frame.u32(static_cast<std::uint32_t>(k));
  *recon = base;
  for (std::uint32_t idx : order) {
    frame.u32(idx);
    frame.f32(cur[idx]);
    (*recon)[idx] = cur[idx];  // carried values are exact f32
  }
}

bool decode_tensor_fp32(BinReader& frame, std::size_t count, std::vector<float>* out) {
  const auto data = frame.span(count * sizeof(float));
  if (!data) return false;
  out->resize(count);
  std::copy_n(*data, count * sizeof(float), reinterpret_cast<std::uint8_t*>(out->data()));
  return true;
}

/// Reads `count` values of T, each widened to a float.
template <typename T, typename Widen>
bool decode_tensor(BinReader& frame, std::size_t count, Widen widen,
                   std::vector<float>* out) {
  const auto data = frame.span(count * sizeof(T));
  if (!data) return false;
  out->resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    T value;
    std::memcpy(&value, *data + i * sizeof(T), sizeof(T));
    (*out)[i] = widen(value);
  }
  return true;
}

bool decode_tensor_i8(BinReader& frame, std::size_t count, std::vector<float>* out) {
  const auto scale = frame.f32();
  if (!scale || !std::isfinite(*scale)) return false;
  return decode_tensor<std::int8_t>(
      frame, count, [s = *scale](std::int8_t q) { return static_cast<float>(q) * s; },
      out);
}

bool decode_tensor_topk(BinReader& frame, const std::vector<float>& base,
                        std::vector<float>* out) {
  const auto k = frame.u32();
  if (!k || *k > base.size()) return false;
  *out = base;
  for (std::uint32_t i = 0; i < *k; ++i) {
    const auto idx = frame.u32();
    const auto value = frame.f32();
    if (!idx || !value || *idx >= base.size()) return false;
    (*out)[*idx] = *value;
  }
  return true;
}

/// The bytes the encoder above for `codec` writes for a tensor of n entries.
std::size_t encoded_tensor_bytes(WeightCodec codec, std::size_t n, double topk_fraction) {
  switch (codec) {
    case WeightCodec::kFp32:
      return n * sizeof(float);
    case WeightCodec::kFp16:
    case WeightCodec::kBf16:
      return n * sizeof(std::uint16_t);
    case WeightCodec::kInt8:
    case WeightCodec::kDeltaInt8:
      return sizeof(float) + n;  // scale, then one byte per entry
    case WeightCodec::kTopK:
      return 4 + topk_count(n, topk_fraction) * (4 + sizeof(float));
  }
  return 0;
}

/// The encoding a frame actually uses: keyframes of base-referencing codecs
/// ship as exact fp32 so every decoder restarts its chain from truth.
WeightCodec frame_codec_for(WeightCodec codec, bool keyframe) {
  if (keyframe && weight_codec_uses_base(codec)) return WeightCodec::kFp32;
  return codec;
}

void write_frame_header(const WeightFrameInfo& info, BinWriter& frame) {
  frame.u32(kWeightFrameMagic);
  frame.u8(kWeightFrameVersion);
  frame.u8(static_cast<std::uint8_t>(info.codec));
  frame.u8(info.keyframe ? kFlagKeyframe : 0);
  frame.u8(0);  // reserved
  frame.u32(info.version);
  frame.u32(info.base_version);
  frame.u64(info.raw_size);
}

std::optional<WeightFrameInfo> read_frame_header(BinReader& frame) {
  const auto magic = frame.u32();
  const auto frame_version = frame.u8();
  const auto codec = frame.u8();
  const auto flags = frame.u8();
  const auto reserved = frame.u8();
  const auto version = frame.u32();
  const auto base_version = frame.u32();
  const auto raw_size = frame.u64();
  // The encoder writes no other flag and a zero reserved byte.
  if (!magic || *magic != kWeightFrameMagic || !frame_version ||
      *frame_version != kWeightFrameVersion || !codec || *codec >= kWeightCodecCount ||
      !flags || (*flags & ~kFlagKeyframe) != 0 || !reserved || *reserved != 0 ||
      !version || !base_version || !raw_size) {
    return std::nullopt;
  }
  const WeightFrameInfo info{static_cast<WeightCodec>(*codec),
                             (*flags & kFlagKeyframe) != 0, *version, *base_version,
                             *raw_size};
  // A frame is a keyframe exactly when its codec needs no base, and a
  // keyframe names no base version.
  if (info.keyframe == weight_codec_uses_base(info.codec)) return std::nullopt;
  if (info.keyframe && info.base_version != 0) return std::nullopt;
  return info;
}

/// The blob a base-referencing frame is coded against; nullopt when `base`
/// is missing or its sizes differ from `shape`.
std::optional<nn::MlpBlob> parse_base(const Bytes* base, const nn::MlpShape& shape) {
  if (base == nullptr) return std::nullopt;
  auto blob = nn::parse_mlp_blob(*base);
  if (!blob || !blob->shape.same_sizes(shape)) return std::nullopt;
  return blob;
}

}  // namespace

const char* weight_codec_name(WeightCodec codec) {
  switch (codec) {
    case WeightCodec::kFp32:
      return "fp32";
    case WeightCodec::kFp16:
      return "fp16";
    case WeightCodec::kBf16:
      return "bf16";
    case WeightCodec::kInt8:
      return "int8";
    case WeightCodec::kDeltaInt8:
      return "delta";
    case WeightCodec::kTopK:
      return "topk";
  }
  return "fp32";
}

std::optional<WeightCodec> parse_weight_codec(const std::string& name) {
  for (std::uint8_t i = 0; i < kWeightCodecCount; ++i) {
    const auto codec = static_cast<WeightCodec>(i);
    if (name == weight_codec_name(codec)) return codec;
  }
  return std::nullopt;
}

bool weight_codec_uses_base(WeightCodec codec) {
  return codec == WeightCodec::kDeltaInt8 || codec == WeightCodec::kTopK;
}

std::optional<WeightFrameInfo> peek_weight_frame(const Bytes& payload) {
  BinReader frame(payload);
  return read_frame_header(frame);
}

std::optional<EncodedWeightFrame> encode_weight_frame(const Bytes& fp32_blob,
                                                      std::uint32_t version,
                                                      const WeightSyncConfig& config,
                                                      bool keyframe, const Bytes* base,
                                                      std::uint32_t base_version) {
  const auto blob = nn::parse_mlp_blob(fp32_blob);
  if (!blob) return std::nullopt;
  const WeightCodec frame_codec = frame_codec_for(config.codec, keyframe);
  std::optional<nn::MlpBlob> base_blob;
  if (weight_codec_uses_base(frame_codec)) {
    base_blob = parse_base(base, blob->shape);
    if (!base_blob) return std::nullopt;
  } else {
    base_version = 0;
  }

  // The frame is allocated once, at its exact size.
  std::size_t frame_bytes = kFrameHeaderBytes + blob->shape.structure_bytes();
  for (const std::vector<float>& tensor : blob->tensors) {
    frame_bytes += encoded_tensor_bytes(frame_codec, tensor.size(), config.topk_fraction);
  }

  EncodedWeightFrame out;
  out.keyframe = !weight_codec_uses_base(frame_codec);
  BinWriter frame;
  frame.reserve(frame_bytes);
  write_frame_header(
      {frame_codec, out.keyframe, version, base_version, fp32_blob.size()}, frame);
  // Structure segment: enough to rebuild the exact Mlp::serialize stream.
  blob->shape.write(frame);

  nn::MlpBlobWriter recon(blob->shape);
  std::vector<float> delta;
  std::vector<float> tensor_recon;
  for (std::size_t t = 0; t < blob->tensors.size(); ++t) {
    const std::vector<float>& cur = blob->tensors[t];
    switch (frame_codec) {
      case WeightCodec::kFp32:
        encode_tensor_fp32(cur, frame, &tensor_recon);
        break;
      case WeightCodec::kFp16:
        encode_tensor_16(cur, f32_to_f16, f16_to_f32, frame, &tensor_recon);
        break;
      case WeightCodec::kBf16:
        encode_tensor_16(cur, f32_to_bf16, bf16_to_f32, frame, &tensor_recon);
        break;
      case WeightCodec::kInt8:
        encode_tensor_i8(cur, frame, &tensor_recon);
        break;
      case WeightCodec::kDeltaInt8: {
        const std::vector<float>& base_floats = base_blob->tensors[t];
        delta.resize(cur.size());
        for (std::size_t i = 0; i < cur.size(); ++i) delta[i] = cur[i] - base_floats[i];
        encode_tensor_i8(delta, frame, &tensor_recon);
        for (std::size_t i = 0; i < cur.size(); ++i) tensor_recon[i] += base_floats[i];
        break;
      }
      case WeightCodec::kTopK:
        encode_tensor_topk(cur, base_blob->tensors[t], config.topk_fraction, frame,
                           &tensor_recon);
        break;
    }
    recon.add(tensor_recon);
  }
  assert(frame.buffer().size() == frame_bytes);
  out.payload = frame.take();
  out.reconstructed = recon.take();
  return out;
}

std::optional<Bytes> decode_weight_frame(const Bytes& payload, const Bytes* base) {
  BinReader frame(payload);
  const auto info = read_frame_header(frame);
  if (!info) return std::nullopt;
  const auto shape = nn::MlpShape::read(frame);
  if (!shape) return std::nullopt;
  std::optional<nn::MlpBlob> base_blob;
  if (weight_codec_uses_base(info->codec)) {
    base_blob = parse_base(base, *shape);
    if (!base_blob) return std::nullopt;
  }

  // Allocation guard: raw_size and the structure segment must agree on the
  // reconstructed size *before* anything is reserved — a flipped size field
  // must fail cleanly, not drive a giant allocation. For standalone codecs
  // every entry also costs at least one payload byte, which bounds the
  // structure a frame of this size can legitimately claim (base-referencing
  // codecs are bounded by the structure match against the in-memory base).
  if (info->raw_size != shape->blob_bytes()) return std::nullopt;
  if (!weight_codec_uses_base(info->codec) && shape->float_count() > payload.size()) {
    return std::nullopt;
  }

  nn::MlpBlobWriter out(*shape);
  std::vector<float> values;
  for (std::size_t t = 0; t < shape->tensor_count(); ++t) {
    const auto count = static_cast<std::size_t>(shape->tensor_size(t));
    bool ok = false;
    switch (info->codec) {
      case WeightCodec::kFp32:
        ok = decode_tensor_fp32(frame, count, &values);
        break;
      case WeightCodec::kFp16:
        ok = decode_tensor<std::uint16_t>(frame, count, f16_to_f32, &values);
        break;
      case WeightCodec::kBf16:
        ok = decode_tensor<std::uint16_t>(frame, count, bf16_to_f32, &values);
        break;
      case WeightCodec::kInt8:
        ok = decode_tensor_i8(frame, count, &values);
        break;
      case WeightCodec::kDeltaInt8: {
        const std::vector<float>& base_floats = base_blob->tensors[t];
        ok = decode_tensor_i8(frame, count, &values);
        if (ok) {
          for (std::size_t i = 0; i < count; ++i) values[i] += base_floats[i];
        }
        break;
      }
      case WeightCodec::kTopK:
        ok = decode_tensor_topk(frame, base_blob->tensors[t], &values);
        break;
    }
    if (!ok) return std::nullopt;
    out.add(values);
  }
  if (!frame.exhausted()) return std::nullopt;
  return out.take();
}

double relative_update_norm(const Bytes& cur, const Bytes& prev) {
  const auto a = nn::parse_mlp_blob(cur);
  const auto b = nn::parse_mlp_blob(prev);
  if (!a || !b || !a->shape.same_sizes(b->shape)) {
    return std::numeric_limits<double>::infinity();
  }
  double num = 0.0;
  double den = 0.0;
  for (std::size_t t = 0; t < a->tensors.size(); ++t) {
    for (std::size_t j = 0; j < a->tensors[t].size(); ++j) {
      const double x = a->tensors[t][j];
      const double y = b->tensors[t][j];
      num += (x - y) * (x - y);
      den += y * y;
    }
  }
  return std::sqrt(num) / (std::sqrt(den) + 1e-12);
}

// ---------------------------------------------------------------------------
// Version ring.
// ---------------------------------------------------------------------------

const Bytes* WeightRing::find(std::uint32_t version) const {
  for (const Entry& e : entries_) {
    if (e.version == version) return e.blob.get();
  }
  return nullptr;
}

const Bytes* WeightRing::newest() const {
  return entries_.empty() ? nullptr : entries_.back().blob.get();
}

void WeightRing::push(std::uint32_t version, std::shared_ptr<const Bytes> blob) {
  if (find(version) != nullptr) return;
  entries_.push_back({version, std::move(blob)});
  while (entries_.size() > kWeightRingCapacity) entries_.pop_front();
}

// ---------------------------------------------------------------------------
// Encoder session.
// ---------------------------------------------------------------------------

WeightEncoderSession::WeightEncoderSession(WeightSyncConfig config,
                                           MetricsRegistry& metrics,
                                           std::uint16_t machine)
    : config_(config),
      encode_ms_(metrics.histogram(metric::xt_weights_encode_ms, {machine})),
      compression_ratio_(
          metrics.histogram(metric::xt_weights_compression_ratio, {machine})),
      ack_lag_(metrics.histogram(metric::xt_weights_ack_lag, {machine})),
      bytes_out_(metrics.counter(metric::xt_weights_bytes_total,
                                 {weight_codec_name(config.codec), machine})),
      raw_bytes_(metrics.counter(metric::xt_weights_raw_bytes_total, {machine})),
      skipped_(metrics.counter(metric::xt_weights_skipped_total, {machine})),
      keyframes_(metrics.counter(metric::xt_weights_keyframes_total, {machine})) {}

std::optional<std::uint32_t> WeightEncoderSession::common_ack(
    const std::vector<std::string>& dst_keys) const {
  if (dst_keys.empty()) return std::nullopt;
  std::uint32_t base = std::numeric_limits<std::uint32_t>::max();
  for (const std::string& key : dst_keys) {
    const auto it = acked_.find(key);
    if (it == acked_.end()) return std::nullopt;  // never acked: needs a keyframe
    base = std::min(base, it->second);
  }
  return base;
}

std::optional<Payload> WeightEncoderSession::encode(
    const Bytes& fp32_blob, std::uint32_t version,
    const std::vector<std::string>& dst_keys, bool force) {
  raw_bytes_.inc(fp32_blob.size());

  // LAPG-style lazy broadcast: small updates are not worth a broadcast.
  const Bytes* last = ring_.newest();
  if (!force && config_.lazy_threshold > 0.0 && last != nullptr &&
      skip_streak_ < config_.max_staleness) {
    if (relative_update_norm(fp32_blob, *last) < config_.lazy_threshold) {
      ++skip_streak_;
      skipped_.inc();
      return std::nullopt;
    }
  }
  // After max_staleness consecutive skips the next publish restarts every
  // decoder chain from truth.
  bool keyframe = true;
  std::uint32_t base_version = 0;
  const Bytes* base = nullptr;
  if (weight_codec_uses_base(config_.codec)) {
    keyframe = skip_streak_ >= config_.max_staleness || last == nullptr ||
               since_keyframe_ + 1 >= config_.keyframe_every;
    if (!keyframe) {
      // The newest version every destination acked, if the ring holds it.
      // Without one, some destination never acked: its lag counts from 0.
      const auto acked = common_ack(dst_keys);
      if (!dst_keys.empty()) ack_lag_.observe(version - acked.value_or(0));
      base_version = acked.value_or(0);
      if (acked) base = ring_.find(base_version);
      keyframe = base == nullptr;
    }
  }

  const Stopwatch clock;
  auto frame = encode_weight_frame(fp32_blob, version, config_, keyframe, base,
                                   base_version);
  if (!frame && base != nullptr) {
    // Base structure mismatch (e.g. architecture change): fall back hard.
    frame = encode_weight_frame(fp32_blob, version, config_, true, nullptr, 0);
  }
  if (!frame) return std::nullopt;  // not Mlp weights
  skip_streak_ = 0;
  since_keyframe_ = frame->keyframe ? 0 : since_keyframe_ + 1;
  return publish(std::move(*frame), version, fp32_blob.size(), clock.elapsed_ms());
}

std::optional<Payload> WeightEncoderSession::encode_keyframe(const Bytes& fp32_blob,
                                                             std::uint32_t version) {
  raw_bytes_.inc(fp32_blob.size());
  const Stopwatch clock;
  auto frame = encode_weight_frame(fp32_blob, version, config_, true, nullptr, 0);
  if (!frame) return std::nullopt;
  return publish(std::move(*frame), version, fp32_blob.size(), clock.elapsed_ms());
}

Payload WeightEncoderSession::publish(EncodedWeightFrame frame, std::uint32_t version,
                                      std::size_t raw_size, double encode_ms) {
  encode_ms_.observe(encode_ms);
  bytes_out_.inc(frame.payload.size());
  compression_ratio_.observe(static_cast<double>(raw_size) /
                             static_cast<double>(frame.payload.size()));
  if (frame.keyframe) keyframes_.inc();
  ring_.push(version, std::make_shared<const Bytes>(std::move(frame.reconstructed)));
  return make_payload(std::move(frame.payload));
}

void WeightEncoderSession::note_ack(const std::string& dst_key, std::uint32_t version) {
  auto& slot = acked_[dst_key];
  slot = std::max(slot, version);
}

// ---------------------------------------------------------------------------
// Decoder session.
// ---------------------------------------------------------------------------

WeightDecoderSession::WeightDecoderSession(MetricsRegistry& metrics,
                                           std::uint16_t machine)
    : decode_ms_(metrics.histogram(metric::xt_weights_decode_ms, {machine})),
      decode_failures_(
          metrics.counter(metric::xt_weights_decode_failures_total, {machine})) {}

WeightDecoderSession::Result WeightDecoderSession::apply(const Payload& payload) {
  Result result;
  if (payload == nullptr) {
    result.outcome = Outcome::kCorrupt;
    return result;
  }
  const auto info = peek_weight_frame(*payload);
  if (!info) {
    decode_failures_.inc();
    result.outcome = Outcome::kCorrupt;
    return result;
  }
  if (applied_any_ && info->version <= version_) {
    result.outcome = Outcome::kStale;
    result.version = info->version;
    return result;
  }

  const Bytes* base = nullptr;
  if (!info->keyframe) {
    base = ring_.find(info->base_version);
    if (base == nullptr) {
      result.outcome = Outcome::kNeedKeyframe;
      result.version = info->version;
      return result;
    }
  }

  Stopwatch clock;
  auto decoded = decode_weight_frame(*payload, base);
  decode_ms_.observe(clock.elapsed_ms());
  if (!decoded) {
    decode_failures_.inc();
    result.outcome = Outcome::kCorrupt;
    result.version = info->version;
    return result;
  }

  auto blob = std::make_shared<const Bytes>(std::move(*decoded));
  ring_.push(info->version, blob);
  version_ = info->version;
  applied_any_ = true;
  result.outcome = Outcome::kApplied;
  result.fp32 = std::move(blob);
  result.version = info->version;
  return result;
}

}  // namespace xt
