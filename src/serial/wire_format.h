#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/bytes.h"
#include "comm/message.h"

namespace xt {

/// What actually crosses a simulated link: one chunk of a routed message
/// (DESIGN.md §9) as an iovec-style frame of two segments. The control
/// segment holds the encoded header; the body segment is the chunk's byte
/// range of a shared buffer (scatter-gather — on a link the buffer is the
/// same object-store allocation the sender's workhorse produced, never
/// copied or flattened into a contiguous wire buffer).
///
/// Integrity, pacing, faults and retransmission operate on the frame: `crc`
/// covers control then the body segment, and the reliable link's `link_seq`
/// numbers frames. `trace_id` and `tclass` are the link's view of the
/// header, set once by encode_wire_frame; neither is encoded.
///
/// `body` is the whole body on a link; a corrupted copy, or a frame a decoder
/// is fed from outside, holds just the segment's bytes.
struct WireFrame {
  Bytes control;                   ///< encoded message header
  Payload body = empty_payload();  ///< buffer holding the segment (never null)
  std::size_t body_offset = 0;     ///< segment start within *body
  std::size_t body_length = 0;     ///< segment bytes
  std::uint32_t crc = 0;           ///< chained CRC-32 over control then segment
  bool crc_present = false;
  std::uint64_t link_seq = 0;      ///< reliable-link frame sequence (0 = none)
  std::uint64_t trace_id = 0;      ///< the message's trace id
  /// The message's class: what the paced pipe and circuit breaker
  /// arbitrate on.
  TrafficClass tclass = TrafficClass::kExperience;

  /// Bytes on the wire: control segment + body segment.
  [[nodiscard]] std::size_t wire_size() const {
    return control.size() + body_length;
  }
  /// The body segment; the caller has checked that it lies in the buffer.
  [[nodiscard]] std::span<const std::uint8_t> segment() const {
    return {body->data() + body_offset, body_length};
  }
};

/// Serialize the header into a control segment and adopt chunk
/// `header.chunk_index` of the whole body `body` (never null) as the body
/// segment: no body bytes are copied. With `with_crc` the frame is stamped with the
/// chained CRC over both segments. Only a message's last chunk carries its
/// trace id: the earlier chunks cross the link while the sender still puts
/// the body, off the message's critical path.
[[nodiscard]] WireFrame encode_wire_frame(const MessageHeader& header,
                                          Payload body, bool with_crc);

/// Chained CRC-32 over the frame's control then body segment, equivalent to
/// the CRC of their concatenation without ever materializing it.
[[nodiscard]] std::uint32_t wire_frame_crc(const WireFrame& frame);

/// Parse a frame back into its message chunk. Returns nullopt when the
/// segment lies outside its buffer, the frame fails its CRC (if present),
/// or the control segment is malformed or inconsistent with the segment —
/// the caller rejects the chunk. The body is the frame's shared buffer (zero
/// copy).
[[nodiscard]] std::optional<Message> decode_wire_frame(const WireFrame& frame);

}  // namespace xt
