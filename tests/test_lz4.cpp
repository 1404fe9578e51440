#include "compress/lz4.h"

#include <gtest/gtest.h>

#include <cstring>

#include "algo/rollout.h"
#include "common/rng.h"
#include "compress/codec.h"

namespace xt {
namespace {

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

Bytes repetitive_bytes(std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>((i / 64) % 7);
  }
  return out;
}

Bytes text_like_bytes(std::size_t n, std::uint64_t seed) {
  static const char* kWords[] = {"rollout", "learner", "explorer", "broker",
                                 "message", "weights", "train", " "};
  Rng rng(seed);
  Bytes out;
  while (out.size() < n) {
    const char* w = kWords[rng.uniform_index(8)];
    out.insert(out.end(), w, w + std::strlen(w));
  }
  out.resize(n);
  return out;
}

void expect_roundtrip(const Bytes& input) {
  const Bytes packed = lz4::compress(input);
  const auto restored = lz4::decompress(packed, input.size());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, input);
}

// Walks the sequences of a compressed block and checks the end-of-block
// rules a reference LZ4 decoder relies on: every match starts at least 12
// bytes before the end, and the last 5 bytes are literals.
void expect_standard_block_end(const Bytes& packed, std::size_t n) {
  auto read_length = [&](std::size_t& ip, std::size_t len) {
    if (len != 15) return len;
    std::uint8_t b;
    do {
      b = packed.at(ip++);
      len += b;
    } while (b == 255);
    return len;
  };
  std::size_t ip = 0;
  std::size_t out = 0;
  while (ip < packed.size()) {
    const std::uint8_t token = packed[ip++];
    const std::size_t lit_len = read_length(ip, token >> 4);
    ip += lit_len;
    out += lit_len;
    if (ip >= packed.size()) break;
    ip += 2;  // offset
    const std::size_t match_len = read_length(ip, token & 0x0F) + 4;
    EXPECT_LE(out + 12, n) << "match starts inside the last 12 bytes";
    out += match_len;
    EXPECT_LE(out + 5, n) << "match covers the last 5 bytes";
  }
  EXPECT_EQ(out, n);
}

TEST(Lz4, EmptyInput) { expect_roundtrip({}); }

TEST(Lz4, SingleByte) { expect_roundtrip({0x42}); }

TEST(Lz4, TinyInputsBelowMatchThreshold) {
  for (std::size_t n = 0; n <= 13; ++n) {
    expect_roundtrip(random_bytes(n, n + 1));
  }
}

TEST(Lz4, AllZerosCompressesWell) {
  const Bytes input(100'000, 0);
  const Bytes packed = lz4::compress(input);
  EXPECT_LT(packed.size(), input.size() / 50);
  const auto restored = lz4::decompress(packed, input.size());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, input);
}

TEST(Lz4, RepetitiveDataCompresses) {
  const Bytes input = repetitive_bytes(64 * 1024);
  const Bytes packed = lz4::compress(input);
  EXPECT_LT(packed.size(), input.size() / 4);
  expect_roundtrip(input);
}

TEST(Lz4, TextLikeDataCompresses) {
  const Bytes input = text_like_bytes(32 * 1024, 3);
  const Bytes packed = lz4::compress(input);
  EXPECT_LT(packed.size(), input.size());
  expect_roundtrip(input);
}

TEST(Lz4, RandomDataRoundTripsDespiteExpansion) {
  const Bytes input = random_bytes(64 * 1024, 7);
  const Bytes packed = lz4::compress(input);
  EXPECT_LE(packed.size(), lz4::compress_bound(input.size()));
  expect_roundtrip(input);
}

TEST(Lz4, LongRunsAtBoundaryLengths) {
  // Exercise extended length encodings around the 15/255 boundaries.
  for (std::size_t run : {14u, 15u, 16u, 18u, 269u, 270u, 271u, 524u, 4096u}) {
    Bytes input(run, 0xAB);
    input.push_back(0x01);  // break the run
    expect_roundtrip(input);
  }
}

TEST(Lz4, OverlappingMatchDistanceOne) {
  // "aaaa..." forces offset-1 overlapping copies in the decompressor.
  expect_roundtrip(Bytes(10'000, 'a'));
}

TEST(Lz4, DecompressRejectsWrongExpectedSize) {
  const Bytes input = repetitive_bytes(1'000);
  const Bytes packed = lz4::compress(input);
  EXPECT_FALSE(lz4::decompress(packed, input.size() + 1).has_value());
  EXPECT_FALSE(lz4::decompress(packed, input.size() - 1).has_value());
}

TEST(Lz4, DecompressRejectsTruncatedInput) {
  const Bytes input = repetitive_bytes(10'000);
  Bytes packed = lz4::compress(input);
  packed.resize(packed.size() / 2);
  EXPECT_FALSE(lz4::decompress(packed, input.size()).has_value());
}

TEST(Lz4, DecompressRejectsCorruptOffset) {
  // A token demanding a match before any literals exist.
  const Bytes bogus = {0x00, 0x10, 0x00};  // 0 literals, offset 16, but empty output
  EXPECT_FALSE(lz4::decompress(bogus, 100).has_value());
}

TEST(Lz4, DecompressOfEmptyNeedsZeroSize) {
  EXPECT_TRUE(lz4::decompress({}, 0).has_value());
  EXPECT_FALSE(lz4::decompress({}, 5).has_value());
}

TEST(Lz4, MissCounterResetsAfterIncompressiblePrefix) {
  // A long random prefix grows the skip step to dozens of bytes. The tail
  // is short matches (8-byte tokens from a small vocabulary) separated by
  // 4 random bytes, so every token costs a few failed probes. Only if each
  // match resets the miss counter does the step fall back to one byte and
  // the tail compress about as well as it does on its own.
  const Bytes prefix = random_bytes(256 * 1024, 21);
  const Bytes vocabulary = random_bytes(64 * 8, 22);
  Rng rng(23);
  Bytes tail;
  while (tail.size() < 256 * 1024) {
    const auto token =
        vocabulary.begin() + static_cast<std::ptrdiff_t>(rng.uniform_index(64) * 8);
    tail.insert(tail.end(), token, token + 8);
    for (int i = 0; i < 4; ++i) {
      tail.push_back(static_cast<std::uint8_t>(rng.next_u64()));
    }
  }
  Bytes input = prefix;
  input.insert(input.end(), tail.begin(), tail.end());

  const std::size_t tail_alone = lz4::compress(tail).size();
  EXPECT_LT(tail_alone, tail.size() * 3 / 4);
  // The prefix ships as literals (plus length bytes); the tail must cost
  // about what it costs alone.
  const Bytes packed = lz4::compress(input);
  EXPECT_LT(packed.size(), lz4::compress_bound(prefix.size()) + tail_alone * 11 / 10);
  expect_roundtrip(input);
}

TEST(Lz4, ImpalaShapedRolloutRoundTripsAndShrinks) {
  // An IMPALA rollout body: near-incompressible frames (the emulator's
  // pixels) interleaved with sparse, slowly changing float observations.
  // Skipping over the frames must not skip the observations' matches.
  constexpr std::size_t kFrameBytes = 28'000;
  constexpr std::size_t kObsDim = 128;
  RolloutBatch batch;
  for (std::size_t i = 0; i < 40; ++i) {
    RolloutStep step;
    step.observation.assign(kObsDim, 0.0f);
    step.observation[i % kObsDim] = 1.0f;
    step.observation[kObsDim - 1] = static_cast<float>(i) * 0.25f;
    step.action = static_cast<std::int32_t>(i % 4);
    fill_frame(step.frame, kFrameBytes, i);
    batch.steps.push_back(std::move(step));
  }
  batch.final_observation.assign(kObsDim, 0.0f);
  const Bytes input = batch.serialize();

  const Bytes packed = lz4::compress(input);
  const std::size_t obs_bytes = batch.steps.size() * kObsDim * sizeof(float);
  // Most of each observation is a match; the frames stay literals.
  EXPECT_LT(packed.size(), input.size() - obs_bytes / 2);
  expect_standard_block_end(packed, input.size());
  expect_roundtrip(input);
}

TEST(Lz4, EverySizeFrom13To64RoundTrips) {
  // Word-wise match extension must stop exactly at the last-literals limit:
  // runs broken at every position, at every small size.
  auto check = [](const Bytes& input) {
    expect_roundtrip(input);
    expect_standard_block_end(lz4::compress(input), input.size());
  };
  for (std::size_t n = 13; n <= 64; ++n) {
    check(Bytes(n, 0x5A));
    check(repetitive_bytes(n));
    check(random_bytes(n, n));
    for (std::size_t brk = 0; brk < n; ++brk) {
      Bytes input(n, 0x5A);
      input[brk] = 0xA5;
      check(input);
    }
  }
}

TEST(Lz4, DecompressSurvivesTruncationsAndBitFlips) {
  // Decoder input is untrusted: every prefix of a real compressed body and
  // seeded single-bit flips of it must decode to nullopt or to exactly the
  // expected size, never crash or overrun (the sanitizer CI job runs this).
  const Bytes input = text_like_bytes(8 * 1024, 31);
  const Bytes packed = lz4::compress(input);
  ASSERT_LT(packed.size(), input.size());

  auto check = [&](const Bytes& mangled) {
    const auto restored = lz4::decompress(mangled, input.size());
    if (restored.has_value()) {
      EXPECT_EQ(restored->size(), input.size());
    }
  };
  for (std::size_t len = 0; len < packed.size(); ++len) {
    const Bytes prefix(packed.begin(),
                       packed.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(lz4::decompress(prefix, input.size()).has_value()) << "len " << len;
  }
  Rng rng(32);
  for (int i = 0; i < 4'000; ++i) {
    Bytes mangled = packed;
    mangled[rng.uniform_index(mangled.size())] ^=
        static_cast<std::uint8_t>(1u << rng.uniform_index(8));
    check(mangled);
  }
}

// `pattern` is a size_t so the struct has no padding: gtest names each case
// by printing the struct's bytes, and padding bytes would be indeterminate.
struct Lz4Case {
  std::size_t size;
  std::size_t pattern;  // 0 random, 1 repetitive, 2 text, 3 zeros
};

class Lz4PropertyTest : public ::testing::TestWithParam<Lz4Case> {};

TEST_P(Lz4PropertyTest, RoundTrip) {
  const auto& param = GetParam();
  Bytes input;
  switch (param.pattern) {
    case 0: input = random_bytes(param.size, param.size * 31 + 1); break;
    case 1: input = repetitive_bytes(param.size); break;
    case 2: input = text_like_bytes(param.size, param.size + 5); break;
    default: input = Bytes(param.size, 0); break;
  }
  expect_roundtrip(input);
}

std::vector<Lz4Case> lz4_cases() {
  std::vector<Lz4Case> cases;
  for (std::size_t size : {1u, 13u, 64u, 255u, 4096u, 65'537u, 1'000'000u}) {
    for (std::size_t pattern : {0u, 1u, 2u, 3u}) cases.push_back({size, pattern});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(SizesAndPatterns, Lz4PropertyTest,
                         ::testing::ValuesIn(lz4_cases()));

TEST(Codec, SmallBodiesSkipCompression) {
  CompressionConfig config;  // 1 MB threshold
  const Payload body = make_payload(repetitive_bytes(1024));
  const EncodedBody encoded = maybe_compress(body, config);
  EXPECT_FALSE(encoded.compressed);
  EXPECT_EQ(encoded.data, body);  // zero-copy passthrough
}

TEST(Codec, LargeCompressibleBodiesGetCompressed) {
  CompressionConfig config;
  const Payload body = make_payload(repetitive_bytes(2 * 1024 * 1024));
  const EncodedBody encoded = maybe_compress(body, config);
  EXPECT_TRUE(encoded.compressed);
  EXPECT_LT(encoded.data->size(), body->size());
  const auto restored =
      maybe_decompress(encoded.data, encoded.compressed, encoded.uncompressed_size);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(**restored, *body);
}

TEST(Codec, IncompressibleLargeBodiesShipRaw) {
  CompressionConfig config;
  const Payload body = make_payload(random_bytes(2 * 1024 * 1024, 11));
  const EncodedBody encoded = maybe_compress(body, config);
  EXPECT_FALSE(encoded.compressed);
  EXPECT_EQ(encoded.data, body);
}

TEST(Codec, DisabledCompressionPassesThrough) {
  CompressionConfig config;
  config.enabled = false;
  const Payload body = make_payload(repetitive_bytes(4 * 1024 * 1024));
  const EncodedBody encoded = maybe_compress(body, config);
  EXPECT_FALSE(encoded.compressed);
}

TEST(Codec, ThresholdIsConfigurable) {
  CompressionConfig config;
  config.threshold_bytes = 100;
  const Payload body = make_payload(repetitive_bytes(1000));
  EXPECT_TRUE(maybe_compress(body, config).compressed);
}

TEST(Codec, DecompressDetectsCorruption) {
  CompressionConfig config;
  config.threshold_bytes = 100;
  const Payload body = make_payload(repetitive_bytes(10'000));
  EncodedBody encoded = maybe_compress(body, config);
  ASSERT_TRUE(encoded.compressed);
  Bytes mangled = *encoded.data;
  mangled.resize(mangled.size() / 2);
  EXPECT_FALSE(maybe_decompress(make_payload(std::move(mangled)), true,
                                encoded.uncompressed_size)
                   .has_value());
}

}  // namespace
}  // namespace xt
