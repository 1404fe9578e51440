#include "compress/weight_codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/clock.h"
#include "serial/binio.h"

namespace xt {
namespace {

// 'XTWC' little-endian: distinguishes codec frames from raw Mlp blobs, whose
// first bytes are an input_dim u64 (realistic dims never collide with this).
constexpr std::uint32_t kWeightFrameMagic = 0x43575458u;
constexpr std::uint8_t kWeightFrameVersion = 1;
constexpr std::uint8_t kFlagKeyframe = 0x01;
// nn::Activation's values (identity, relu, tanh): Mlp::deserialize rejects
// any other activation byte, so a frame that names one is corrupt.
constexpr std::uint8_t kActivationCount = 3;

// ---------------------------------------------------------------------------
// Mlp weight blob view: structure metadata + byte spans of the f32 tensors.
// The blob layout is nn::Mlp::serialize (u64 input_dim, u32 n_layers, per
// layer {u64 rows, u64 cols, u8 activation, f32_vec weight, f32_vec bias}).
// Parsing treats the blob as untrusted: every read is bounds-checked.
// ---------------------------------------------------------------------------

struct LayerMeta {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint8_t activation = 0;
};

struct TensorSpan {
  std::size_t offset = 0;  ///< byte offset of the first float in the blob
  std::size_t count = 0;   ///< number of f32 entries
};

struct WeightBlobView {
  std::uint64_t input_dim = 0;
  std::vector<LayerMeta> layers;
  std::vector<TensorSpan> tensors;  ///< weight, bias per layer, in order
  std::size_t total_floats = 0;
};

class Cursor {
 public:
  explicit Cursor(const Bytes& data) : data_(data.data()), size_(data.size()) {}

  template <typename T>
  bool scalar(T* out) {
    if (size_ - pos_ < sizeof(T)) return false;
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  bool span(std::size_t bytes, std::size_t* offset) {
    if (size_ - pos_ < bytes) return false;
    *offset = pos_;
    pos_ += bytes;
    return true;
  }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

std::optional<WeightBlobView> parse_weight_blob(const Bytes& blob) {
  Cursor c(blob);
  WeightBlobView view;
  std::uint32_t n_layers = 0;
  if (!c.scalar(&view.input_dim) || !c.scalar(&n_layers)) return std::nullopt;
  // A layer costs at least 25 bytes of metadata; reject hostile counts early.
  if (n_layers > blob.size() / 25) return std::nullopt;
  view.layers.reserve(n_layers);
  view.tensors.reserve(2u * n_layers);
  for (std::uint32_t i = 0; i < n_layers; ++i) {
    LayerMeta layer;
    if (!c.scalar(&layer.rows) || !c.scalar(&layer.cols) ||
        !c.scalar(&layer.activation)) {
      return std::nullopt;
    }
    for (int t = 0; t < 2; ++t) {
      std::uint64_t count = 0;
      if (!c.scalar(&count)) return std::nullopt;
      const std::uint64_t expect = t == 0 ? layer.rows * layer.cols : layer.cols;
      if (count != expect || count > (blob.size() - c.pos()) / sizeof(float)) {
        return std::nullopt;
      }
      TensorSpan span;
      span.count = static_cast<std::size_t>(count);
      if (!c.span(span.count * sizeof(float), &span.offset)) return std::nullopt;
      view.tensors.push_back(span);
      view.total_floats += span.count;
    }
    view.layers.push_back(layer);
  }
  if (!c.exhausted()) return std::nullopt;
  return view;
}

void load_tensor(const Bytes& blob, const TensorSpan& span, std::vector<float>* out) {
  out->resize(span.count);
  std::memcpy(out->data(), blob.data() + span.offset, span.count * sizeof(float));
}

bool same_structure(const WeightBlobView& a, const WeightBlobView& b) {
  if (a.input_dim != b.input_dim || a.layers.size() != b.layers.size()) return false;
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    if (a.layers[i].rows != b.layers[i].rows || a.layers[i].cols != b.layers[i].cols) {
      return false;
    }
  }
  return true;
}

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
// Per-tensor frame coding. Writers append to `payload`; the matching reader
// consumes from a Cursor over the frame. `recon` receives the dequantized
// values the decoder will reconstruct.
// ---------------------------------------------------------------------------

void write_raw(const char* data, std::size_t bytes, Bytes* payload) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(data);
  payload->insert(payload->end(), p, p + bytes);
}

template <typename T>
void write_scalar(T v, Bytes* payload) {
  write_raw(reinterpret_cast<const char*>(&v), sizeof(v), payload);
}

void encode_tensor_fp32(const std::vector<float>& cur, Bytes* payload,
                        std::vector<float>* recon) {
  write_raw(reinterpret_cast<const char*>(cur.data()), cur.size() * sizeof(float),
            payload);
  *recon = cur;
}

bool decode_tensor_fp32(Cursor* c, const Bytes& payload, std::size_t count,
                        std::vector<float>* out) {
  std::size_t offset = 0;
  if (!c->span(count * sizeof(float), &offset)) return false;
  out->resize(count);
  std::memcpy(out->data(), payload.data() + offset, count * sizeof(float));
  return true;
}

template <typename Narrow, typename Widen>
void encode_tensor_16(const std::vector<float>& cur, Narrow narrow, Widen widen,
                      Bytes* payload, std::vector<float>* recon) {
  recon->resize(cur.size());
  for (std::size_t i = 0; i < cur.size(); ++i) {
    const std::uint16_t h = narrow(cur[i]);
    write_scalar(h, payload);
    (*recon)[i] = widen(h);
  }
}

template <typename Widen>
bool decode_tensor_16(Cursor* c, const Bytes& payload, std::size_t count,
                      Widen widen, std::vector<float>* out) {
  std::size_t offset = 0;
  if (!c->span(count * sizeof(std::uint16_t), &offset)) return false;
  out->resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint16_t h;
    std::memcpy(&h, payload.data() + offset + i * sizeof(h), sizeof(h));
    (*out)[i] = widen(h);
  }
  return true;
}

/// Shared by kInt8 (values quantized absolutely) and kDeltaInt8 (the caller
/// passes cur - base and adds the base back into recon).
void encode_tensor_i8(const std::vector<float>& values, Bytes* payload,
                      std::vector<float>* recon) {
  const float max_abs = max_abs_of(values);
  const float scale = max_abs / 127.0f;
  write_scalar(scale, payload);
  recon->resize(values.size());
  if (scale == 0.0f) {
    payload->insert(payload->end(), values.size(), 0u);
    std::fill(recon->begin(), recon->end(), 0.0f);
    return;
  }
  const float inv_scale = 1.0f / scale;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::int8_t q = quantize_i8(values[i], inv_scale);
    write_scalar(q, payload);
    (*recon)[i] = static_cast<float>(q) * scale;
  }
}

bool decode_tensor_i8(Cursor* c, const Bytes& payload, std::size_t count,
                      std::vector<float>* out) {
  float scale = 0.0f;
  std::size_t offset = 0;
  if (!c->scalar(&scale) || !std::isfinite(scale)) return false;
  if (!c->span(count, &offset)) return false;
  out->resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto q = static_cast<std::int8_t>(payload[offset + i]);
    (*out)[i] = static_cast<float>(q) * scale;
  }
  return true;
}

void encode_tensor_topk(const std::vector<float>& cur, const std::vector<float>& base,
                        double fraction, Bytes* payload, std::vector<float>* recon) {
  const std::size_t n = cur.size();
  auto k = static_cast<std::size_t>(std::ceil(fraction * static_cast<double>(n)));
  k = std::min(n, std::max<std::size_t>(1, k));
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::nth_element(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k) - 1,
                   order.end(), [&](std::uint32_t a, std::uint32_t b) {
                     return std::fabs(cur[a] - base[a]) > std::fabs(cur[b] - base[b]);
                   });
  order.resize(k);
  std::sort(order.begin(), order.end());
  write_scalar(static_cast<std::uint32_t>(k), payload);
  *recon = base;
  for (std::uint32_t idx : order) {
    write_scalar(idx, payload);
    write_scalar(cur[idx], payload);
    (*recon)[idx] = cur[idx];  // carried values are exact f32
  }
}

bool decode_tensor_topk(Cursor* c, const std::vector<float>& base, std::size_t count,
                        std::vector<float>* out) {
  std::uint32_t k = 0;
  if (!c->scalar(&k) || k > count) return false;
  *out = base;
  for (std::uint32_t i = 0; i < k; ++i) {
    std::uint32_t idx = 0;
    float value = 0.0f;
    if (!c->scalar(&idx) || !c->scalar(&value) || idx >= count) return false;
    (*out)[idx] = value;
  }
  return true;
}

/// The encoding a frame actually uses: keyframes of base-referencing codecs
/// ship as exact fp32 so every decoder restarts its chain from truth.
WeightCodec frame_codec_for(WeightCodec codec, bool keyframe) {
  if (keyframe && weight_codec_uses_base(codec)) return WeightCodec::kFp32;
  return codec;
}

void append_frame_header(WeightCodec codec, std::uint8_t flags, std::uint32_t version,
                         std::uint32_t base_version, std::uint64_t raw_size,
                         Bytes* payload) {
  write_scalar(kWeightFrameMagic, payload);
  write_scalar(kWeightFrameVersion, payload);
  write_scalar(static_cast<std::uint8_t>(codec), payload);
  write_scalar(flags, payload);
  write_scalar(std::uint8_t{0}, payload);  // reserved
  write_scalar(version, payload);
  write_scalar(base_version, payload);
  write_scalar(raw_size, payload);
}

constexpr std::size_t kFrameHeaderBytes = 4 + 1 + 1 + 1 + 1 + 4 + 4 + 8;

std::optional<WeightFrameInfo> parse_frame_header(Cursor* c) {
  std::uint32_t magic = 0;
  std::uint8_t frame_version = 0;
  std::uint8_t codec = 0;
  std::uint8_t flags = 0;
  std::uint8_t reserved = 0;
  WeightFrameInfo info;
  if (!c->scalar(&magic) || magic != kWeightFrameMagic) return std::nullopt;
  if (!c->scalar(&frame_version) || frame_version != kWeightFrameVersion) {
    return std::nullopt;
  }
  if (!c->scalar(&codec) || codec >= kWeightCodecCount) return std::nullopt;
  if (!c->scalar(&flags) || !c->scalar(&reserved)) return std::nullopt;
  if (!c->scalar(&info.version) || !c->scalar(&info.base_version) ||
      !c->scalar(&info.raw_size)) {
    return std::nullopt;
  }
  info.codec = static_cast<WeightCodec>(codec);
  info.keyframe = (flags & kFlagKeyframe) != 0;
  // The encoder writes no other flag and a zero reserved byte. A frame is a
  // keyframe exactly when its codec needs no base, and a keyframe names no
  // base version.
  if ((flags & ~kFlagKeyframe) != 0 || reserved != 0) return std::nullopt;
  if (info.keyframe == weight_codec_uses_base(info.codec)) return std::nullopt;
  if (info.keyframe && info.base_version != 0) return std::nullopt;
  return info;
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
  Cursor c(payload);
  return parse_frame_header(&c);
}

std::optional<EncodedWeightFrame> encode_weight_frame(const Bytes& fp32_blob,
                                                      std::uint32_t version,
                                                      const WeightSyncConfig& config,
                                                      bool keyframe, const Bytes* base,
                                                      std::uint32_t base_version) {
  const auto view = parse_weight_blob(fp32_blob);
  if (!view) return std::nullopt;

  EncodedWeightFrame out;
  const WeightCodec frame_codec = frame_codec_for(config.codec, keyframe);
  std::optional<WeightBlobView> base_view;
  if (weight_codec_uses_base(frame_codec)) {
    if (base == nullptr) return std::nullopt;
    base_view = parse_weight_blob(*base);
    if (!base_view || !same_structure(*view, *base_view)) return std::nullopt;
  } else {
    base_version = 0;
  }

  out.keyframe = !weight_codec_uses_base(frame_codec);
  out.payload.reserve(kFrameHeaderBytes + fp32_blob.size() / 2);
  append_frame_header(frame_codec, out.keyframe ? kFlagKeyframe : 0, version,
                      base_version, fp32_blob.size(), &out.payload);

  // Structure segment: enough to rebuild the exact Mlp::serialize stream.
  write_scalar(view->input_dim, &out.payload);
  write_scalar(static_cast<std::uint32_t>(view->layers.size()), &out.payload);
  for (const LayerMeta& layer : view->layers) {
    write_scalar(layer.rows, &out.payload);
    write_scalar(layer.cols, &out.payload);
    write_scalar(layer.activation, &out.payload);
  }

  BinWriter recon;
  recon.reserve(fp32_blob.size());
  recon.u64(view->input_dim);
  recon.u32(static_cast<std::uint32_t>(view->layers.size()));
  std::vector<float> cur;
  std::vector<float> base_floats;
  std::vector<float> delta;
  std::vector<float> tensor_recon;
  for (std::size_t li = 0; li < view->layers.size(); ++li) {
    const LayerMeta& layer = view->layers[li];
    recon.u64(layer.rows);
    recon.u64(layer.cols);
    recon.u8(layer.activation);
    for (int t = 0; t < 2; ++t) {
      const TensorSpan& span = view->tensors[2 * li + t];
      load_tensor(fp32_blob, span, &cur);
      switch (frame_codec) {
        case WeightCodec::kFp32:
          encode_tensor_fp32(cur, &out.payload, &tensor_recon);
          break;
        case WeightCodec::kFp16:
          encode_tensor_16(cur, f32_to_f16, f16_to_f32, &out.payload, &tensor_recon);
          break;
        case WeightCodec::kBf16:
          encode_tensor_16(cur, f32_to_bf16, bf16_to_f32, &out.payload, &tensor_recon);
          break;
        case WeightCodec::kInt8:
          encode_tensor_i8(cur, &out.payload, &tensor_recon);
          break;
        case WeightCodec::kDeltaInt8: {
          load_tensor(*base, base_view->tensors[2 * li + t], &base_floats);
          delta.resize(cur.size());
          for (std::size_t i = 0; i < cur.size(); ++i) delta[i] = cur[i] - base_floats[i];
          encode_tensor_i8(delta, &out.payload, &tensor_recon);
          for (std::size_t i = 0; i < cur.size(); ++i) tensor_recon[i] += base_floats[i];
          break;
        }
        case WeightCodec::kTopK:
          load_tensor(*base, base_view->tensors[2 * li + t], &base_floats);
          encode_tensor_topk(cur, base_floats, config.topk_fraction, &out.payload,
                             &tensor_recon);
          break;
      }
      recon.f32_vec(tensor_recon);
    }
  }
  out.reconstructed = recon.take();
  return out;
}

std::optional<Bytes> decode_weight_frame(const Bytes& payload, const Bytes* base) {
  Cursor c(payload);
  const auto info = parse_frame_header(&c);
  if (!info) return std::nullopt;

  std::uint64_t input_dim = 0;
  std::uint32_t n_layers = 0;
  if (!c.scalar(&input_dim) || !c.scalar(&n_layers)) return std::nullopt;
  if (n_layers > payload.size() / 17) return std::nullopt;
  std::vector<LayerMeta> layers(n_layers);
  for (LayerMeta& layer : layers) {
    if (!c.scalar(&layer.rows) || !c.scalar(&layer.cols) ||
        !c.scalar(&layer.activation) || layer.activation >= kActivationCount) {
      return std::nullopt;
    }
    // Tensor sizes must be consistent with what the frame can possibly hold;
    // each entry costs at least one byte in every codec except top-k, whose
    // k field is validated against count below.
    if (layer.cols == 0 ||
        layer.rows > std::numeric_limits<std::uint32_t>::max() / layer.cols) {
      return std::nullopt;
    }
  }

  std::optional<WeightBlobView> base_view;
  if (weight_codec_uses_base(info->codec)) {
    if (base == nullptr) return std::nullopt;
    base_view = parse_weight_blob(*base);
    if (!base_view || base_view->layers.size() != n_layers ||
        base_view->input_dim != input_dim) {
      return std::nullopt;
    }
    for (std::size_t i = 0; i < layers.size(); ++i) {
      if (base_view->layers[i].rows != layers[i].rows ||
          base_view->layers[i].cols != layers[i].cols) {
        return std::nullopt;
      }
    }
  }

  // Allocation guard: raw_size and the structure segment must agree on the
  // reconstructed size *before* anything is reserved — a flipped size field
  // must fail cleanly, not drive a giant allocation. For standalone codecs
  // every entry also costs at least one payload byte, which bounds the
  // structure a frame of this size can legitimately claim (base-referencing
  // codecs are bounded by the structure match against the in-memory base).
  std::uint64_t expected_raw = 8 + 4;
  std::uint64_t total_floats = 0;
  for (const LayerMeta& layer : layers) {
    const std::uint64_t wcount = layer.rows * layer.cols;
    expected_raw += 17 + (8 + 4 * wcount) + (8 + 4 * layer.cols);
    total_floats += wcount + layer.cols;
  }
  if (info->raw_size != expected_raw) return std::nullopt;
  if (!weight_codec_uses_base(info->codec) && total_floats > payload.size()) {
    return std::nullopt;
  }

  BinWriter w;
  w.reserve(static_cast<std::size_t>(info->raw_size));
  w.u64(input_dim);
  w.u32(n_layers);
  std::vector<float> out;
  std::vector<float> base_floats;
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const LayerMeta& layer = layers[li];
    w.u64(layer.rows);
    w.u64(layer.cols);
    w.u8(layer.activation);
    for (int t = 0; t < 2; ++t) {
      const auto count = static_cast<std::size_t>(
          t == 0 ? layer.rows * layer.cols : layer.cols);
      bool ok = false;
      switch (info->codec) {
        case WeightCodec::kFp32:
          ok = decode_tensor_fp32(&c, payload, count, &out);
          break;
        case WeightCodec::kFp16:
          ok = decode_tensor_16(&c, payload, count, f16_to_f32, &out);
          break;
        case WeightCodec::kBf16:
          ok = decode_tensor_16(&c, payload, count, bf16_to_f32, &out);
          break;
        case WeightCodec::kInt8:
          ok = decode_tensor_i8(&c, payload, count, &out);
          break;
        case WeightCodec::kDeltaInt8: {
          load_tensor(*base, base_view->tensors[2 * li + t], &base_floats);
          ok = decode_tensor_i8(&c, payload, count, &out);
          if (ok) {
            for (std::size_t i = 0; i < count; ++i) out[i] += base_floats[i];
          }
          break;
        }
        case WeightCodec::kTopK:
          load_tensor(*base, base_view->tensors[2 * li + t], &base_floats);
          ok = decode_tensor_topk(&c, base_floats, count, &out);
          break;
      }
      if (!ok || out.size() != count) return std::nullopt;
      w.f32_vec(out);
    }
  }
  if (!c.exhausted()) return std::nullopt;
  return w.take();
}

double relative_update_norm(const Bytes& cur, const Bytes& prev) {
  const auto cur_view = parse_weight_blob(cur);
  const auto prev_view = parse_weight_blob(prev);
  if (!cur_view || !prev_view || !same_structure(*cur_view, *prev_view)) {
    return std::numeric_limits<double>::infinity();
  }
  double num = 0.0;
  double den = 0.0;
  std::vector<float> a;
  std::vector<float> b;
  for (std::size_t i = 0; i < cur_view->tensors.size(); ++i) {
    load_tensor(cur, cur_view->tensors[i], &a);
    load_tensor(prev, prev_view->tensors[i], &b);
    for (std::size_t j = 0; j < a.size(); ++j) {
      const double d = static_cast<double>(a[j]) - static_cast<double>(b[j]);
      num += d * d;
      den += static_cast<double>(b[j]) * static_cast<double>(b[j]);
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
                                           const WeightCodecInstruments* instruments)
    : config_(config), instruments_(instruments) {}

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
  if (instruments_ != nullptr && instruments_->raw_bytes != nullptr) {
    instruments_->raw_bytes->inc(fp32_blob.size());
  }

  // LAPG-style lazy broadcast: small updates are not worth a broadcast.
  const Bytes* last = ring_.newest();
  if (!force && config_.lazy_threshold > 0.0 && last != nullptr &&
      skip_streak_ < config_.max_staleness) {
    if (relative_update_norm(fp32_blob, *last) < config_.lazy_threshold) {
      ++skip_streak_;
      if (instruments_ != nullptr && instruments_->skipped != nullptr) {
        instruments_->skipped->inc();
      }
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
      if (const auto acked = common_ack(dst_keys)) {
        base_version = *acked;
        base = ring_.find(base_version);
      }
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
  const Stopwatch clock;
  auto frame = encode_weight_frame(fp32_blob, version, config_, true, nullptr, 0);
  if (!frame) return std::nullopt;
  return publish(std::move(*frame), version, fp32_blob.size(), clock.elapsed_ms());
}

Payload WeightEncoderSession::publish(EncodedWeightFrame frame, std::uint32_t version,
                                      std::size_t raw_size, double encode_ms) {
  if (instruments_ != nullptr) {
    if (instruments_->encode_ms != nullptr) instruments_->encode_ms->observe(encode_ms);
    if (instruments_->bytes_out != nullptr) {
      instruments_->bytes_out->inc(frame.payload.size());
    }
    if (instruments_->compression_ratio != nullptr) {
      instruments_->compression_ratio->observe(
          static_cast<double>(raw_size) / static_cast<double>(frame.payload.size()));
    }
    if (frame.keyframe && instruments_->keyframes != nullptr) {
      instruments_->keyframes->inc();
    }
  }
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

WeightDecoderSession::Result WeightDecoderSession::apply(const Payload& payload) {
  Result result;
  if (payload == nullptr) {
    result.outcome = Outcome::kCorrupt;
    return result;
  }
  const auto info = peek_weight_frame(*payload);
  if (!info) {
    if (instruments_ != nullptr && instruments_->decode_failures != nullptr) {
      instruments_->decode_failures->inc();
    }
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
  if (instruments_ != nullptr && instruments_->decode_ms != nullptr) {
    instruments_->decode_ms->observe(clock.elapsed_ms());
  }
  if (!decoded) {
    if (instruments_ != nullptr && instruments_->decode_failures != nullptr) {
      instruments_->decode_failures->inc();
    }
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
