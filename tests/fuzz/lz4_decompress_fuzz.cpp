// Fuzz target for lz4::decompress, the decoder that sees every compressed
// message body a peer sends. An input is a 3-byte little-endian expected
// size (masked to 20 bits, so at most 1 MiB) followed by the LZ4 block.
//
// The decoder must return nullopt or exactly the expected size, and never
// read or write out of bounds. The same bytes, taken as raw data, must
// round-trip through the encoder, and compress_if_worthwhile must either
// give up or produce exactly what compress does.
//
// test_lz4 links this function and replays tests/fuzz/corpus/lz4_decompress
// plus seeded mutations of it under the sanitizers; a clang build with
// -DXT_FUZZ=ON builds it as the libFuzzer binary fuzz_lz4_decompress.

#include <cstddef>
#include <cstdint>
#include <cstdlib>

#include "compress/lz4.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size < 3) return 0;
  const std::size_t expected =
      static_cast<std::size_t>((data[0] | data[1] << 8 | data[2] << 16) & 0xFFFFF);
  const xt::Bytes block(data + 3, data + size);

  const auto decoded = xt::lz4::decompress(block, expected);
  if (decoded.has_value() && decoded->size() != expected) std::abort();

  const xt::Bytes packed = xt::lz4::compress(block);
  if (packed.size() > xt::lz4::compress_bound(block.size())) std::abort();
  const auto restored = xt::lz4::decompress(packed, block.size());
  if (!restored.has_value() || *restored != block) std::abort();
  const auto judged = xt::lz4::compress_if_worthwhile(block);
  if (judged.has_value() && *judged != packed) std::abort();
  return 0;
}
