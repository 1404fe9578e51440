// Fuzz target for decode_wire_frame, the decoder that admits every frame a
// peer machine sends across a link. An input is a 2-byte little-endian
// control-segment length, then the control segment, then the body segment
// (the rest of the input): the bytes of one chunk of a message's body. A
// length past the input takes the rest as the control segment and leaves
// the body empty.
//
// The frame is decoded three ways: without a CRC; stamped with its correct
// CRC, which must give the same result; and stamped with a wrong CRC, which
// must be rejected. A decoded chunk must be one of its body's chunks, its
// segment exactly that chunk's length, and a packed body nonempty and
// smaller than its uncompressed size; it must share the frame's body
// buffer, and its header must encode back to the same control segment,
// allocated at exactly its size.
//
// test_netsim links this function and replays tests/fuzz/corpus/wire_frame
// plus seeded mutations of it under the sanitizers; a clang build with
// -DXT_FUZZ=ON builds it as the libFuzzer binary fuzz_wire_frame.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>

#include "serial/wire_format.h"

namespace {

bool same_fields(const xt::MessageHeader& a, const xt::MessageHeader& b) {
  return a.msg_id == b.msg_id && a.src == b.src && a.dsts == b.dsts &&
         a.type == b.type && a.body_size == b.body_size &&
         a.uncompressed_size == b.uncompressed_size &&
         a.created_ns == b.created_ns && a.tag == b.tag &&
         a.chunk_index == b.chunk_index;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size < 2) return 0;
  const std::size_t control_size =
      std::min<std::size_t>(data[0] | data[1] << 8, size - 2);
  const std::uint8_t* body_begin = data + 2 + control_size;
  xt::WireFrame frame;
  frame.control.assign(data + 2, body_begin);
  frame.body = xt::make_payload(xt::Bytes(body_begin, data + size));
  frame.body_length = frame.body->size();

  const auto plain = xt::decode_wire_frame(frame);

  xt::WireFrame stamped = frame;
  stamped.crc_present = true;
  stamped.crc = xt::wire_frame_crc(frame);
  const auto checked = xt::decode_wire_frame(stamped);
  if (plain.has_value() != checked.has_value()) std::abort();
  if (plain && !same_fields(plain->header, checked->header)) std::abort();
  stamped.crc ^= 1;
  if (xt::decode_wire_frame(stamped).has_value()) std::abort();

  if (!plain) return 0;
  const xt::MessageHeader& header = plain->header;
  if (header.chunk_index >= header.chunk_count() ||
      xt::chunk_length(header.body_size, header.chunk_index) != frame.body->size() ||
      (header.compressed() &&
       (header.body_size == 0 || header.uncompressed_size <= header.body_size))) {
    std::abort();
  }
  if (plain->body.get() != frame.body.get()) std::abort();
  // Every field decodes verbatim, so the header encodes back to the same
  // control segment (the encoder reads no body bytes without a CRC), in a
  // buffer of exactly its size.
  const xt::Bytes control =
      xt::encode_wire_frame(plain->header, plain->body, /*with_crc=*/false).control;
  if (control != frame.control || control.capacity() != control.size()) std::abort();
  return 0;
}
