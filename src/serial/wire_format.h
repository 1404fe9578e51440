#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.h"
#include "comm/message.h"

namespace xt {

/// What actually crosses a simulated link: one routed message as an
/// iovec-style frame of two segments. The control segment holds the encoded
/// header; the body travels as a shared payload segment (scatter-gather —
/// the body buffer is the same object-store allocation the sender's
/// workhorse produced, never flattened into a contiguous wire buffer).
///
/// Integrity and retransmission operate on the frame: `crc` covers control
/// then body, and the reliable link's `link_seq` numbers frames.
struct WireFrame {
  Bytes control;                   ///< encoded message header
  Payload body = empty_payload();  ///< shared body segment (never null)
  std::uint32_t crc = 0;           ///< chained CRC-32 over control then body
  bool crc_present = false;
  std::uint64_t link_seq = 0;      ///< reliable-link frame sequence (0 = none)
  std::uint64_t trace_id = 0;      ///< the message's trace id
  /// The message's class: what the paced pipe and circuit breaker
  /// arbitrate on.
  TrafficClass tclass = TrafficClass::kExperience;

  /// Bytes on the wire: control segment + body segment.
  [[nodiscard]] std::size_t wire_size() const {
    return control.size() + body->size();
  }
};

/// Serialize the header into a control segment and adopt the body (never
/// null) as the shared segment (no body bytes are copied). The header's
/// link_seq is not encoded: the frame carries its own. With `with_crc` the
/// frame is stamped with the chained CRC over both segments.
[[nodiscard]] WireFrame encode_wire_frame(const MessageHeader& header,
                                          Payload body, bool with_crc);

/// Chained CRC-32 over the frame's control then body segment, equivalent to
/// the CRC of their concatenation without ever materializing it.
[[nodiscard]] std::uint32_t wire_frame_crc(const WireFrame& frame);

/// Parse a frame back into its message. Returns nullopt when the frame
/// fails its CRC (if present) or the control segment is malformed or
/// inconsistent with the body segment — the caller rejects the message. The
/// decoded header carries the frame's link_seq; the body is the frame's
/// shared segment (zero copy).
[[nodiscard]] std::optional<Message> decode_wire_frame(const WireFrame& frame);

}  // namespace xt
