#include "serial/wire_format.h"

#include <utility>

#include "common/crc32.h"
#include "serial/binio.h"

namespace xt {
namespace {

/// Control-segment layout version; bumped whenever the encoding changes so a
/// mixed-version simulation fails loudly instead of misparsing.
/// v2: per-sub-frame traffic-class byte (overload arbitration, DESIGN.md §10).
/// v3: weight-codec id + base-version per sub-frame (DESIGN.md §11).
/// v4: one message per frame; the sub-frame count is gone.
/// v5: the weight-codec id and base version are gone; the weight frame's own
/// header carries them (DESIGN.md §11).
/// v6: chunk index and chunk count; the body segment is one chunk.
/// v7: the traffic class, compressed flag and chunk count are gone; the
/// type, uncompressed size and body size determine them.
constexpr std::uint8_t kWireFormatVersion = 7;

void encode_node(BinWriter& writer, const NodeId& id) {
  writer.u16(id.machine);
  writer.u8(static_cast<std::uint8_t>(id.kind));
  writer.u16(id.index);
}

std::optional<NodeId> decode_node(BinReader& reader) {
  const auto machine = reader.u16();
  const auto kind = reader.u8();
  const auto index = reader.u16();
  if (!machine || !kind || !index) return std::nullopt;
  if (*kind > static_cast<std::uint8_t>(NodeKind::kBroker)) return std::nullopt;
  return NodeId{*machine, static_cast<NodeKind>(*kind), *index};
}

}  // namespace

WireFrame encode_wire_frame(const MessageHeader& header, Payload body,
                            bool with_crc) {
  WireFrame frame;
  frame.body = std::move(body);
  frame.body_offset = std::size_t{header.chunk_index} * kChunkBytes;
  frame.body_length = chunk_length(header.body_size, header.chunk_index);
  frame.trace_id = header.last_chunk() ? header.trace_id() : 0;
  frame.tclass = header.tclass();
  frame.control = BinWriter::exact([&header](BinWriter& writer) {
    writer.u8(kWireFormatVersion);
    writer.u64(header.msg_id);
    encode_node(writer, header.src);
    writer.u32(static_cast<std::uint32_t>(header.dsts.size()));
    for (const NodeId& dst : header.dsts) encode_node(writer, dst);
    writer.u8(static_cast<std::uint8_t>(header.type));
    writer.u64(header.body_size);
    writer.u64(header.uncompressed_size);
    writer.i64(header.created_ns);
    writer.u32(header.tag);
    writer.u32(header.chunk_index);
  });
  if (with_crc) {
    frame.crc_present = true;
    frame.crc = wire_frame_crc(frame);
  }
  return frame;
}

std::uint32_t wire_frame_crc(const WireFrame& frame) {
  const std::uint32_t crc = crc32(frame.control.data(), frame.control.size());
  const std::span<const std::uint8_t> segment = frame.segment();
  return crc32(segment.data(), segment.size(), crc);
}

std::optional<Message> decode_wire_frame(const WireFrame& frame) {
  const std::size_t buffer = frame.body->size();
  if (frame.body_offset > buffer || frame.body_length > buffer - frame.body_offset) {
    return std::nullopt;
  }
  BinReader reader(frame.control);
  const auto version = reader.u8();
  if (!version || *version != kWireFormatVersion) return std::nullopt;

  Message message;
  MessageHeader& header = message.header;
  const auto msg_id = reader.u64();
  if (!msg_id) return std::nullopt;
  header.msg_id = *msg_id;
  const auto src = decode_node(reader);
  if (!src) return std::nullopt;
  header.src = *src;
  const auto n_dsts = reader.u32();
  if (!n_dsts) return std::nullopt;
  // Each encoded destination is 5 bytes; reject counts the segment cannot
  // possibly hold instead of looping on a corrupted length field.
  if (*n_dsts > reader.remaining() / 5) return std::nullopt;
  header.dsts.reserve(*n_dsts);
  for (std::uint32_t d = 0; d < *n_dsts; ++d) {
    const auto dst = decode_node(reader);
    if (!dst) return std::nullopt;
    header.dsts.push_back(*dst);
  }
  const auto type = reader.u8();
  if (!type || *type > static_cast<std::uint8_t>(MsgType::kWeightsReq)) {
    return std::nullopt;
  }
  header.type = static_cast<MsgType>(*type);
  const auto body_size = reader.u64();
  const auto uncompressed = reader.u64();
  const auto created = reader.i64();
  const auto tag = reader.u32();
  const auto chunk_index = reader.u32();
  if (!body_size || !uncompressed || !created || !tag || !chunk_index ||
      !reader.exhausted()) {
    return std::nullopt;
  }
  // The chunk must be one of the body's and the segment exactly its range.
  if (*chunk_index >= chunk_count_for(*body_size) ||
      frame.body_length != chunk_length(*body_size, *chunk_index)) {
    return std::nullopt;
  }
  // maybe_compress ships a packed body only when it shrank, and LZ4 packs a
  // nonempty body into a nonempty one.
  if (*uncompressed != 0 && (*body_size == 0 || *uncompressed <= *body_size)) {
    return std::nullopt;
  }
  header.body_size = *body_size;
  header.uncompressed_size = *uncompressed;
  header.created_ns = *created;
  header.tag = *tag;
  header.chunk_index = *chunk_index;
  // Last: a malformed control segment is rejected without reading the body.
  if (frame.crc_present && wire_frame_crc(frame) != frame.crc) {
    return std::nullopt;
  }
  message.body = frame.body;
  return message;
}

}  // namespace xt
