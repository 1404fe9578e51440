#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "obs/metrics.h"

namespace xt {

/// Weight broadcast codecs (DESIGN.md §11). The learner encodes every
/// published weight version through one of these before it enters the comm
/// fabric; explorers decode on receipt. All codecs are lossy except kFp32,
/// with per-frame error bounds (quantized deltas never accumulate drift:
/// the encoder chains deltas off the *reconstructed* blob — bit-identical
/// to what every decoder holds — so the error vs the true weights is
/// bounded per frame, not per chain).
enum class WeightCodec : std::uint8_t {
  kFp32 = 0,      ///< identity (reference; also the keyframe encoding)
  kFp16 = 1,      ///< IEEE half, round-to-nearest-even, saturating
  kBf16 = 2,      ///< bfloat16 truncation with round-to-nearest-even
  kInt8 = 3,      ///< symmetric per-tensor int8 (scale = max_abs / 127)
  kDeltaInt8 = 4, ///< int8-quantized delta vs a base version + keyframes
  kTopK = 5,      ///< top-k |change| entries vs a base version + keyframes
};
inline constexpr std::uint8_t kWeightCodecCount = 6;

[[nodiscard]] const char* weight_codec_name(WeightCodec codec);
/// Parses the `[codec] weights = ...` config token. nullopt on unknown names.
[[nodiscard]] std::optional<WeightCodec> parse_weight_codec(const std::string& name);
/// Delta/top-k frames reference a base version; everything else is standalone.
[[nodiscard]] bool weight_codec_uses_base(WeightCodec codec);

/// `[codec]` config section (README.md "Configuration reference" gives the bounds).
struct WeightSyncConfig {
  WeightCodec codec = WeightCodec::kFp32;
  /// Fraction of each tensor's entries a kTopK frame carries. (0, 0.5].
  double topk_fraction = 0.01;
  /// Every Nth published frame of a base-referencing codec is a keyframe.
  std::uint32_t keyframe_every = 16;  ///< 1..100000
  /// LAPG-style lazy broadcast: skip publishing a version whose relative
  /// update norm ||w - w_last_published|| / ||w_last_published|| falls below
  /// this. 0 disables skipping.
  double lazy_threshold = 0.0;  ///< [0, 1)
  /// At most this many consecutive versions may be lazily skipped; the next
  /// publish is then forced out as a keyframe.
  std::uint32_t max_staleness = 8;  ///< 1..100000
};

/// Optional telemetry hooks, mirroring CodecInstruments for body
/// compression. All pointers may be null; resolve once from a
/// MetricsRegistry and reuse per call.
struct WeightCodecInstruments {
  Histogram* encode_ms = nullptr;
  Histogram* decode_ms = nullptr;
  Histogram* compression_ratio = nullptr;  ///< raw bytes / encoded bytes, per frame
  Counter* bytes_out = nullptr;        ///< xt_weights_bytes_total{codec=...}
  Counter* raw_bytes = nullptr;        ///< fp32-equivalent bytes per encode attempt
  Counter* skipped = nullptr;          ///< xt_weights_skipped_total
  Counter* keyframes = nullptr;        ///< keyframes published
  Counter* decode_failures = nullptr;  ///< corrupt frames rejected by a decoder
};

// ---------------------------------------------------------------------------
// Stateless frame coding. A frame is self-describing: a fixed header (magic,
// codec, flags, version, base_version, raw size) followed by the tensor
// structure and per-tensor codec data. decode reconstructs the exact
// byte layout nn::Mlp::serialize emits, so Agent::apply_weights is untouched.
// ---------------------------------------------------------------------------

/// Parsed frame header, readable without decoding the tensors. Endpoints and
/// tests use this to inspect frames cheaply.
struct WeightFrameInfo {
  WeightCodec codec = WeightCodec::kFp32;
  bool keyframe = false;
  /// Payload is a verbatim non-Mlp blob wrapped at fp32 (structure unknown).
  bool opaque = false;
  std::uint32_t version = 0;
  std::uint32_t base_version = 0;
  std::uint64_t raw_size = 0;
};

/// Header-only parse; nullopt when the header is malformed.
[[nodiscard]] std::optional<WeightFrameInfo> peek_weight_frame(const Bytes& payload);

struct EncodedWeightFrame {
  Bytes payload;
  /// The fp32 blob a decoder reconstructs from this frame. The encoder ring
  /// stores this (not the true weights) so delta bases match decoder state
  /// bit for bit.
  Bytes reconstructed;
  /// The encoding actually used (keyframes of delta/top-k ship as kFp32).
  WeightCodec codec = WeightCodec::kFp32;
  bool keyframe = false;
  std::uint32_t base_version = 0;
};

/// Encodes one fp32 weight blob. `keyframe` forces a standalone frame; for
/// base-referencing codecs a non-keyframe encode requires `base` (the
/// reconstructed blob of `base_version`). Blobs that do not parse as Mlp
/// weights are wrapped verbatim as opaque fp32 keyframes, never rejected.
/// Returns nullopt only for internal inconsistencies (base structure
/// mismatch), in which case the caller should retry as a keyframe.
[[nodiscard]] std::optional<EncodedWeightFrame> encode_weight_frame(
    const Bytes& fp32_blob, std::uint32_t version, const WeightSyncConfig& config,
    bool keyframe, const Bytes* base, std::uint32_t base_version);

/// Decodes one frame. `base` must be the reconstructed blob of the frame's
/// base_version for non-keyframe delta/top-k frames (nullptr otherwise).
/// Returns the reconstructed fp32 blob; nullopt on any malformed input.
[[nodiscard]] std::optional<Bytes> decode_weight_frame(const Bytes& payload,
                                                       const Bytes* base);

/// ||cur - prev||_2 / (||prev||_2 + eps) over the tensor entries of two Mlp
/// weight blobs. Returns +inf when either blob fails to parse or the
/// structures differ (callers must then publish).
[[nodiscard]] double relative_update_norm(const Bytes& cur, const Bytes& prev);

// ---------------------------------------------------------------------------
// Sessions. One encoder lives in the learner (trainer thread), one decoder
// per explorer (explorer thread). Neither is thread-safe.
// ---------------------------------------------------------------------------

/// Recent reconstructed blobs both sessions retain as delta bases.
inline constexpr std::size_t kWeightRingCapacity = 8;

class WeightEncoderSession {
 public:
  explicit WeightEncoderSession(WeightSyncConfig config,
                                const WeightCodecInstruments* instruments = nullptr);

  struct Publish {
    Payload payload;
    /// Frame encoding, for the MessageHeader codec_id field.
    WeightCodec codec = WeightCodec::kFp32;
    bool keyframe = false;
    std::uint32_t base_version = 0;
  };

  /// Decides and encodes the broadcast of `version` to the destinations in
  /// `dst_keys` (stable per-explorer keys; used to pick an acked delta
  /// base). Returns nullopt when the lazy policy skips this version.
  /// `force` disables lazy skipping (initial broadcast, algorithms whose
  /// explorers block on fresh weights).
  [[nodiscard]] std::optional<Publish> encode(const Bytes& fp32_blob,
                                              std::uint32_t version,
                                              const std::vector<std::string>& dst_keys,
                                              bool force);

  /// Encodes a standalone keyframe of `version` (keyframe-request replies).
  /// Does not advance the keyframe cadence or lazy state.
  [[nodiscard]] Publish encode_keyframe(const Bytes& fp32_blob, std::uint32_t version);

  /// Records that `dst_key` applied `version` (kWeightsAck).
  void note_ack(const std::string& dst_key, std::uint32_t version);
  /// Forces the next encode() to emit a keyframe (kWeightsReq fallback).
  void note_keyframe_request() { force_keyframe_ = true; }

  [[nodiscard]] std::uint64_t skipped() const { return skipped_; }
  [[nodiscard]] std::uint64_t published() const { return published_; }
  [[nodiscard]] std::uint64_t keyframes() const { return keyframes_; }
  [[nodiscard]] const WeightSyncConfig& config() const { return config_; }

 private:
  struct RingEntry {
    std::uint32_t version = 0;
    std::shared_ptr<const Bytes> blob;  ///< reconstructed, decoder-identical
  };
  [[nodiscard]] const RingEntry* ring_find(std::uint32_t version) const;
  void ring_push(std::uint32_t version, Bytes reconstructed);
  /// Highest version every destination in `dst_keys` has acked and that is
  /// still in the ring; nullptr when any destination lacks a usable ack.
  [[nodiscard]] const RingEntry* pick_base(const std::vector<std::string>& dst_keys) const;

  WeightSyncConfig config_;
  const WeightCodecInstruments* instruments_;
  std::deque<RingEntry> ring_;
  std::unordered_map<std::string, std::uint32_t> acked_;
  std::uint32_t since_keyframe_ = 0;  ///< publishes since the last keyframe
  std::uint32_t skip_streak_ = 0;     ///< consecutive lazily skipped versions
  bool force_keyframe_ = false;
  std::uint64_t skipped_ = 0;
  std::uint64_t published_ = 0;
  std::uint64_t keyframes_ = 0;
};

class WeightDecoderSession {
 public:
  enum class Outcome : std::uint8_t {
    kApplied,       ///< fp32 blob reconstructed; apply it
    kStale,         ///< version <= the newest already applied; drop silently
    kNeedKeyframe,  ///< base version not held; request a keyframe
    kCorrupt,       ///< malformed frame; request a keyframe
  };
  struct Result {
    Outcome outcome = Outcome::kCorrupt;
    Payload fp32;  ///< set when outcome == kApplied
    std::uint32_t version = 0;
  };

  explicit WeightDecoderSession(const WeightCodecInstruments* instruments = nullptr)
      : instruments_(instruments) {}

  /// Decodes one received weights body, a weight frame that carries its own
  /// version. Anything else, a raw fp32 blob included, is kCorrupt.
  [[nodiscard]] Result apply(const Payload& payload);

  /// Newest applied version (meaningful once applied_any()).
  [[nodiscard]] std::uint32_t version() const { return version_; }
  [[nodiscard]] bool applied_any() const { return applied_any_; }

 private:
  struct RingEntry {
    std::uint32_t version = 0;
    std::shared_ptr<const Bytes> blob;
  };
  [[nodiscard]] const RingEntry* ring_find(std::uint32_t version) const;
  void ring_push(std::uint32_t version, std::shared_ptr<const Bytes> blob);

  const WeightCodecInstruments* instruments_;
  std::deque<RingEntry> ring_;
  std::uint32_t version_ = 0;
  bool applied_any_ = false;
};

}  // namespace xt
