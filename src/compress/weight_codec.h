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

// ---------------------------------------------------------------------------
// Stateless frame coding. A frame is self-describing: a fixed header (magic,
// codec, flags, version, base_version, raw size) followed by the tensor
// structure and per-tensor codec data. decode reconstructs the exact
// weight blob nn::Mlp::serialize emits (nn::MlpShape owns its layout), so
// Agent::apply_weights is untouched.
// ---------------------------------------------------------------------------

/// Parsed frame header, readable without decoding the tensors. The frame
/// header is the only record of a frame's codec, keyframe flag and base
/// version; the decoder session and tests read them from here.
struct WeightFrameInfo {
  WeightCodec codec = WeightCodec::kFp32;
  bool keyframe = false;
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
  bool keyframe = false;
};

/// Encodes one fp32 weight blob (nn::Mlp::serialize output). `keyframe`
/// forces a standalone frame; for base-referencing codecs a non-keyframe
/// encode requires `base` (the reconstructed blob of `base_version`).
/// Returns nullopt when the blob is not one nn::parse_mlp_blob accepts, or
/// when a delta's base has other sizes (the caller then retries as a
/// keyframe).
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

/// The last kWeightRingCapacity versions a session published or applied,
/// oldest evicted first.
class WeightRing {
 public:
  /// The blob of `version`; nullptr when the ring does not hold it.
  [[nodiscard]] const Bytes* find(std::uint32_t version) const;
  /// The blob pushed last; nullptr when the ring is empty.
  [[nodiscard]] const Bytes* newest() const;
  /// Keeps `blob` as `version` unless the ring already holds that version.
  void push(std::uint32_t version, std::shared_ptr<const Bytes> blob);

 private:
  struct Entry {
    std::uint32_t version = 0;
    std::shared_ptr<const Bytes> blob;
  };
  std::deque<Entry> entries_;
};

class WeightEncoderSession {
 public:
  /// Registers the learner's `xt_weights_*` series of `machine` in
  /// `metrics` and records into them.
  WeightEncoderSession(WeightSyncConfig config, MetricsRegistry& metrics,
                       std::uint16_t machine);

  /// Decides and encodes the broadcast of `version` to the destinations in
  /// `dst_keys` (stable per-explorer keys; used to pick an acked delta
  /// base). Returns the frame, or nullopt when the lazy policy skips this
  /// version or the blob is not Mlp weights. `force` disables lazy skipping
  /// (initial broadcast, algorithms whose explorers block on fresh weights).
  [[nodiscard]] std::optional<Payload> encode(const Bytes& fp32_blob,
                                              std::uint32_t version,
                                              const std::vector<std::string>& dst_keys,
                                              bool force);

  /// Encodes a standalone keyframe of `version` (keyframe-request replies);
  /// nullopt when the blob is not Mlp weights. Does not advance the
  /// keyframe cadence or lazy state.
  [[nodiscard]] std::optional<Payload> encode_keyframe(const Bytes& fp32_blob,
                                                       std::uint32_t version);

  /// Records that `dst_key` applied `version` (kWeightsAck).
  void note_ack(const std::string& dst_key, std::uint32_t version);

 private:
  /// Highest version every destination in `dst_keys` has acked; nullopt
  /// when any destination has never acked.
  [[nodiscard]] std::optional<std::uint32_t> common_ack(
      const std::vector<std::string>& dst_keys) const;
  /// Records one encoded frame in the series and the ring.
  Payload publish(EncodedWeightFrame frame, std::uint32_t version,
                  std::size_t raw_size, double encode_ms);

  WeightSyncConfig config_;
  Histogram& encode_ms_;
  Histogram& compression_ratio_;  ///< raw bytes / encoded bytes, per frame
  Histogram& ack_lag_;            ///< versions behind the common ack
  Counter& bytes_out_;            ///< xt_weights_bytes_total{codec=...}
  Counter& raw_bytes_;            ///< fp32 bytes per encode attempt and keyframe reply
  Counter& skipped_;
  Counter& keyframes_;
  WeightRing ring_;
  std::unordered_map<std::string, std::uint32_t> acked_;
  std::uint32_t since_keyframe_ = 0;  ///< publishes since the last keyframe
  std::uint32_t skip_streak_ = 0;     ///< consecutive lazily skipped versions
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

  /// Registers the explorer's `xt_weights_decode_*` series of `machine` in
  /// `metrics` and records into them.
  WeightDecoderSession(MetricsRegistry& metrics, std::uint16_t machine);

  /// Decodes one received weights body, a weight frame that carries its own
  /// version. Anything else, a raw fp32 blob included, is kCorrupt.
  [[nodiscard]] Result apply(const Payload& payload);

  /// Newest applied version (meaningful once applied_any()).
  [[nodiscard]] std::uint32_t version() const { return version_; }
  [[nodiscard]] bool applied_any() const { return applied_any_; }

 private:
  Histogram& decode_ms_;
  Counter& decode_failures_;  ///< corrupt frames rejected
  WeightRing ring_;
  std::uint32_t version_ = 0;
  bool applied_any_ = false;
};

}  // namespace xt
