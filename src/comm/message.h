#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "comm/node_id.h"

namespace xt {

/// Message categories flowing through the channel. The router never looks
/// past the header (the broker is algorithm-agnostic, paper Section 3.2.1);
/// the type exists so endpoints can demultiplex received messages.
enum class MsgType : std::uint8_t {
  kRollout = 0,   ///< explorer -> learner: batches of rollout steps
  kWeights = 1,   ///< learner -> explorers: updated DNN parameters
  kStats = 2,     ///< any -> center controller: metrics
  kCommand = 3,   ///< controller -> any: lifecycle control
  kDummy = 4,     ///< the dummy DRL algorithm of Section 5.1
  kHeartbeat = 5, ///< worker -> controller: liveness beacon (empty body)
  kWeightsAck = 6, ///< explorer -> learner: applied weights version (empty body)
  kWeightsReq = 7, ///< explorer -> learner: keyframe request after a decode miss
};

/// Traffic classes for overload arbitration (DESIGN.md §10). Ordering is the
/// priority: lower value = more important. Under overload the comm core
/// never drops control, backpressures weights, and sheds experience — so the
/// supervision plane stays live while bulk data degrades gracefully.
enum class TrafficClass : std::uint8_t {
  kControl = 0,     ///< heartbeats, commands, acks — never dropped
  kWeights = 1,     ///< model parameters — backpressured, not dropped
  kExperience = 2,  ///< rollouts, stats, bulk data — shed first under overload
};
inline constexpr std::uint8_t kTrafficClassCount = 3;

/// Default class for a message type. Callers can override per-message (the
/// field lives in the header), but in practice the type determines the class.
///
/// Strict priority is only starvation-free when the higher lanes are low-rate
/// by construction. Heartbeats are rate-limited per worker, commands are
/// rare, acks are bounded by the data frame rate — so control stays a
/// trickle. Stats are NOT control: short episodes can emit thousands of
/// stats records per second, enough to saturate a paced link's frame budget
/// on their own, and classifying them above rollouts starves the data plane
/// outright. They are droppable telemetry — experience class.
[[nodiscard]] constexpr TrafficClass traffic_class_of(MsgType type) {
  switch (type) {
    case MsgType::kWeights:
      return TrafficClass::kWeights;
    case MsgType::kRollout:
    case MsgType::kDummy:
    case MsgType::kStats:
      return TrafficClass::kExperience;
    case MsgType::kCommand:
    case MsgType::kHeartbeat:
    case MsgType::kWeightsAck:
    case MsgType::kWeightsReq:
      return TrafficClass::kControl;
  }
  return TrafficClass::kExperience;
}

[[nodiscard]] constexpr const char* traffic_class_name(TrafficClass cls) {
  switch (cls) {
    case TrafficClass::kControl:
      return "control";
    case TrafficClass::kWeights:
      return "weights";
    case TrafficClass::kExperience:
      return "experience";
  }
  return "experience";
}

/// Lightweight metadata that travels through header/ID queues. Bodies move
/// separately through the zero-copy object store; only this struct is
/// copied per destination.
struct MessageHeader {
  std::uint64_t msg_id = 0;
  NodeId src;
  std::vector<NodeId> dsts;     ///< weights broadcast => several destinations
  MsgType type = MsgType::kDummy;
  std::uint64_t object_id = 0;  ///< body handle in the object store (0 = none yet)
  std::uint64_t body_size = 0;  ///< stored (possibly compressed) size in bytes
  bool compressed = false;
  std::uint64_t uncompressed_size = 0;
  std::int64_t created_ns = 0;  ///< when the workhorse produced the message
  std::uint32_t tag = 0;        ///< free-form (e.g. training iteration, PBT rank)
  /// Overload arbitration lane (see TrafficClass). Stamped by make_outbound
  /// from the message type and carried in its wire frame's control segment.
  TrafficClass tclass = TrafficClass::kExperience;

  /// Weight-frame metadata (DESIGN.md §11), meaningful only for kWeights.
  /// `codec_id` is the WeightCodec the body was encoded with and `base_tag`
  /// the version a delta/top-k frame builds on (0 = standalone keyframe).
  /// Carried in the header so endpoints can triage a frame — stale? base
  /// missing? — without fetching or parsing the body.
  std::uint8_t codec_id = 0;
  std::uint32_t base_tag = 0;

  /// Per-link sequence number assigned by the reliable channel (0 = none).
  /// Wire integrity is checked per frame, not per message (WireFrame::crc).
  std::uint64_t link_seq = 0;

  /// Trace id stitching this message's lifecycle spans together across hops
  /// and machines. Deliberately aliased to the process-unique msg_id so
  /// enabling tracing adds zero bytes to the header (and zero copy cost per
  /// destination).
  [[nodiscard]] std::uint64_t trace_id() const { return msg_id; }
};

/// A full message as seen by workhorse threads: header + immutable body.
struct Message {
  MessageHeader header;
  Payload body;
};

/// What workhorse threads enqueue. The body may be supplied either as
/// ready bytes or as a deferred producer; a deferred producer runs on the
/// *sender thread*, which is how XingTian keeps serialization off the
/// workhorse's critical path (communication-computation overlap).
struct Outbound {
  MessageHeader header;
  Payload body;                          ///< used when producer is empty
  std::function<Bytes()> producer;       ///< serialized lazily by the sender
};

/// Allocates a process-wide unique message id.
[[nodiscard]] std::uint64_t next_message_id();

/// Convenience constructors.
[[nodiscard]] Outbound make_outbound(NodeId src, std::vector<NodeId> dsts,
                                     MsgType type, Payload body,
                                     std::uint32_t tag = 0);
[[nodiscard]] Outbound make_deferred_outbound(NodeId src, std::vector<NodeId> dsts,
                                              MsgType type,
                                              std::function<Bytes()> producer,
                                              std::uint32_t tag = 0);

}  // namespace xt
