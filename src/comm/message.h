#pragma once

#include <algorithm>
#include <cstddef>
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

/// Bodies stream in chunks of this size (DESIGN.md §9). The sender paces its
/// modeled put chunk by chunk and submits one header per chunk, the router
/// forwards each chunk to remote machines at once, and each chunk crosses a
/// link as its own wire frame, so the put and the link overlap. A body of at
/// most one chunk is a message of one chunk.
inline constexpr std::size_t kChunkBytes = std::size_t{256} * 1024;

/// Chunks a body of `body_size` bytes streams as (an empty body is one).
[[nodiscard]] constexpr std::uint64_t chunk_count_for(std::uint64_t body_size) {
  if (body_size <= kChunkBytes) return 1;
  return body_size / kChunkBytes + (body_size % kChunkBytes != 0 ? 1 : 0);
}

/// Bytes of chunk `index` of a body of `body_size` bytes; it starts at
/// `index * kChunkBytes`.
[[nodiscard]] constexpr std::uint64_t chunk_length(std::uint64_t body_size,
                                                   std::uint32_t index) {
  const std::uint64_t begin = std::uint64_t{index} * kChunkBytes;
  if (begin >= body_size) return 0;
  return std::min<std::uint64_t>(kChunkBytes, body_size - begin);
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

  /// The chunk of the body this header announces, and how many the body
  /// streams as (chunk_count_for(body_size)). Every other field is the same
  /// in each chunk's header; local destinations see only the last one.
  std::uint32_t chunk_index = 0;
  std::uint32_t chunk_count = 1;
  [[nodiscard]] bool last_chunk() const { return chunk_index + 1 == chunk_count; }

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
