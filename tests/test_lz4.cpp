#include "compress/lz4.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string>

#include "algo/rollout.h"
#include "common/rng.h"
#include "compress/codec.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size);

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

/// A serialized rollout of `steps` steps with `frame_bytes` of emulator-like
/// frame per step (fill_frame: incompressible) and a 128-float observation
/// that is mostly zeros, as the explorers of the benchmark workloads ship.
constexpr std::size_t kRolloutObsDim = 128;

Payload rollout_body(std::size_t steps, std::size_t frame_bytes) {
  RolloutBatch batch;
  for (std::size_t i = 0; i < steps; ++i) {
    RolloutStep step;
    step.observation.assign(kRolloutObsDim, 0.0f);
    step.observation[i % kRolloutObsDim] = 1.0f;
    step.observation[kRolloutObsDim - 1] = static_cast<float>(i) * 0.25f;
    step.action = static_cast<std::int32_t>(i % 4);
    fill_frame(step.frame, frame_bytes, i);
    batch.steps.push_back(std::move(step));
  }
  batch.final_observation.assign(kRolloutObsDim, 0.0f);
  return make_payload(batch.serialize());
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
  constexpr std::size_t kSteps = 40;
  const Bytes input = *rollout_body(kSteps, 28'000);

  const Bytes packed = lz4::compress(input);
  const std::size_t obs_bytes = kSteps * kRolloutObsDim * sizeof(float);
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

TEST(Lz4, CompressIfWorthwhileMatchesCompressWhenItPays) {
  // All zeros: the first window's last match runs to the end of the input.
  for (const Bytes& input :
       {repetitive_bytes(3 * lz4::kWindowBytes), text_like_bytes(200'000, 41),
        text_like_bytes(1'000, 42), Bytes(4 * 1024 * 1024, 0)}) {
    const auto judged = lz4::compress_if_worthwhile(input);
    ASSERT_TRUE(judged.has_value());
    EXPECT_EQ(*judged, lz4::compress(input));
  }
}

TEST(Lz4, CompressIfWorthwhileGivesUpOnIncompressibleInput) {
  EXPECT_FALSE(
      lz4::compress_if_worthwhile(random_bytes(4 * 1024 * 1024, 43)).has_value());
  // A short input is judged by its whole output.
  EXPECT_FALSE(lz4::compress_if_worthwhile(random_bytes(1'000, 44)).has_value());
  EXPECT_FALSE(lz4::compress_if_worthwhile({}).has_value());
}

TEST(Lz4, CompressIfWorthwhileJudgesOnlyTheFirstWindow) {
  // 1/16 is the line: a first window that saves a little less gives up even
  // though the rest of the body would compress to nothing.
  Bytes input = random_bytes(lz4::kWindowBytes, 45);
  std::fill_n(input.begin(), lz4::kWindowBytes / 20, 0);  // saves ~5%
  input.resize(4 * lz4::kWindowBytes, 0);
  EXPECT_FALSE(lz4::compress_if_worthwhile(input).has_value());
  std::fill_n(input.begin(), lz4::kWindowBytes / 10, 0);  // saves ~10%
  const auto judged = lz4::compress_if_worthwhile(input);
  ASSERT_TRUE(judged.has_value());
  EXPECT_EQ(*judged, lz4::compress(input));
}

enum class Lz4Pattern { kRandom, kRepetitive, kText, kZeros };

const char* pattern_name(Lz4Pattern pattern) {
  switch (pattern) {
    case Lz4Pattern::kRandom: return "random";
    case Lz4Pattern::kRepetitive: return "repetitive";
    case Lz4Pattern::kText: return "text";
    case Lz4Pattern::kZeros: return "zeros";
  }
  return "unknown";
}

struct Lz4Case {
  std::size_t size;
  Lz4Pattern pattern;
};

std::string case_name(const Lz4Case& c) {
  return "n" + std::to_string(c.size) + "_" + pattern_name(c.pattern);
}

// gtest prints a case by its name, not by dumping its bytes.
void PrintTo(const Lz4Case& c, std::ostream* os) { *os << case_name(c); }

class Lz4PropertyTest : public ::testing::TestWithParam<Lz4Case> {};

TEST_P(Lz4PropertyTest, RoundTrip) {
  const auto& param = GetParam();
  Bytes input;
  switch (param.pattern) {
    case Lz4Pattern::kRandom:
      input = random_bytes(param.size, param.size * 31 + 1);
      break;
    case Lz4Pattern::kRepetitive:
      input = repetitive_bytes(param.size);
      break;
    case Lz4Pattern::kText:
      input = text_like_bytes(param.size, param.size + 5);
      break;
    case Lz4Pattern::kZeros:
      input = Bytes(param.size, 0);
      break;
  }
  expect_roundtrip(input);
}

std::vector<Lz4Case> lz4_cases() {
  std::vector<Lz4Case> cases;
  for (std::size_t size : {1u, 13u, 64u, 255u, 4096u, 65'537u, 1'000'000u}) {
    for (Lz4Pattern pattern : {Lz4Pattern::kRandom, Lz4Pattern::kRepetitive,
                               Lz4Pattern::kText, Lz4Pattern::kZeros}) {
      cases.push_back({size, pattern});
    }
  }
  return cases;
}

// Cases are named by size and pattern, e.g. n65537_random.
INSTANTIATE_TEST_SUITE_P(SizesAndPatterns, Lz4PropertyTest,
                         ::testing::ValuesIn(lz4_cases()),
                         [](const ::testing::TestParamInfo<Lz4Case>& info) {
                           return case_name(info.param);
                         });

TEST(Codec, ImpalaShapedRolloutShipsRaw) {
  // A 28 KB frame beside ~540 bytes of observation and step fields: LZ4
  // would save under 2%, so the sender gives up after the first window and
  // ships the body zero-copy.
  const Payload body = rollout_body(500, 28'000);
  ASSERT_GE(body->size(), CompressionConfig{}.threshold_bytes);
  const EncodedBody encoded = maybe_compress(body, CompressionConfig{});
  EXPECT_FALSE(encoded.compressed);
  EXPECT_EQ(encoded.data, body);
  EXPECT_EQ(encoded.uncompressed_size, body->size());
}

TEST(Codec, PpoShapedRolloutCompressesAndRoundTrips) {
  // 2 KB frames per observation: LZ4 saves about a fifth of the body.
  const Payload body = rollout_body(500, 2'000);
  ASSERT_GE(body->size(), CompressionConfig{}.threshold_bytes);
  const EncodedBody encoded = maybe_compress(body, CompressionConfig{});
  ASSERT_TRUE(encoded.compressed);
  EXPECT_LT(encoded.data->size(), body->size() * 85 / 100);
  EXPECT_EQ(*encoded.data, lz4::compress(*body));
  const auto restored =
      maybe_decompress(encoded.data, encoded.compressed, encoded.uncompressed_size);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(**restored, *body);
}

TEST(Codec, CompressibleHeadWithRandomRestCompressesAndRoundTrips) {
  // The rule reads the first window only: a body whose head compresses is
  // compressed whole, and must still round-trip through its random rest.
  Bytes bytes = repetitive_bytes(2 * lz4::kWindowBytes);
  const Bytes rest = random_bytes(2 * 1024 * 1024, 46);
  bytes.insert(bytes.end(), rest.begin(), rest.end());
  const Payload body = make_payload(std::move(bytes));
  const EncodedBody encoded = maybe_compress(body, CompressionConfig{});
  ASSERT_TRUE(encoded.compressed);
  EXPECT_LT(encoded.data->size(), body->size());
  const auto restored =
      maybe_decompress(encoded.data, encoded.compressed, encoded.uncompressed_size);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(**restored, *body);
}

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

// --- lz4::decompress fuzz target (tests/fuzz/lz4_decompress_fuzz.cpp) -----
// Its input is a 3-byte little-endian expected size and then the block; it
// aborts on a broken invariant, so a crash here is a failure.

Bytes fuzz_input(std::size_t expected, const Bytes& block) {
  Bytes out = {static_cast<std::uint8_t>(expected),
               static_cast<std::uint8_t>(expected >> 8),
               static_cast<std::uint8_t>((expected >> 16) & 0x0F)};
  out.insert(out.end(), block.begin(), block.end());
  return out;
}

void run_fuzz_target(const Bytes& input) {
  (void)LLVMFuzzerTestOneInput(input.data(), input.size());
}

struct CorpusEntry {
  std::string name;
  std::size_t expected = 0;
  Bytes block;
};

std::vector<CorpusEntry> lz4_corpus() {
  std::vector<CorpusEntry> entries;
  const std::filesystem::path dir =
      std::filesystem::path(XT_SOURCE_DIR) / "tests/fuzz/corpus/lz4_decompress";
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(file.path(), std::ios::binary);
    const Bytes bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (bytes.size() < 3) continue;
    CorpusEntry entry;
    entry.name = file.path().filename().string();
    entry.expected = (bytes[0] | bytes[1] << 8 | bytes[2] << 16) & 0xFFFFF;
    entry.block.assign(bytes.begin() + 3, bytes.end());
    entries.push_back(std::move(entry));
  }
  std::sort(entries.begin(), entries.end(),
            [](const CorpusEntry& a, const CorpusEntry& b) { return a.name < b.name; });
  return entries;
}

/// Start offsets of each sequence's token and, for sequences with a match,
/// of its two offset bytes, found by walking a well-formed block.
struct SequenceMarks {
  std::vector<std::size_t> tokens;
  std::vector<std::size_t> offsets;
};

SequenceMarks sequence_marks(const Bytes& block) {
  SequenceMarks marks;
  auto skip_length = [&](std::size_t& ip, std::size_t len) {
    if (len != 15) return len;
    std::uint8_t b;
    do {
      b = block.at(ip++);
      len += b;
    } while (b == 255);
    return len;
  };
  std::size_t ip = 0;
  while (ip < block.size()) {
    marks.tokens.push_back(ip);
    const std::uint8_t token = block[ip++];
    ip += skip_length(ip, token >> 4);
    if (ip >= block.size()) break;
    marks.offsets.push_back(ip);
    ip += 2;
    (void)skip_length(ip, token & 0x0F);
  }
  return marks;
}

TEST(Lz4Fuzz, CorpusReplays) {
  const std::vector<CorpusEntry> corpus = lz4_corpus();
  ASSERT_GE(corpus.size(), 10u);
  for (const CorpusEntry& entry : corpus) {
    SCOPED_TRACE(entry.name);
    run_fuzz_target(fuzz_input(entry.expected, entry.block));
    // ok_* entries are well-formed blocks; bad_* entries each break one rule.
    const auto decoded = lz4::decompress(entry.block, entry.expected);
    if (entry.name.rfind("ok_", 0) == 0) {
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(decoded->size(), entry.expected);
    } else {
      EXPECT_FALSE(decoded.has_value());
    }
  }
}

TEST(Lz4Fuzz, SeededMutationsOfCorpus) {
  // Truncations, bit flips, bad offsets and oversized length runs of every
  // well-formed corpus block and of a real compressed rollout head.
  std::vector<CorpusEntry> seeds;
  for (CorpusEntry& entry : lz4_corpus()) {
    if (entry.name.rfind("ok_", 0) == 0) seeds.push_back(std::move(entry));
  }
  const Bytes rollout = *rollout_body(8, 2'000);
  seeds.push_back({"rollout_head", rollout.size(), lz4::compress(rollout)});

  Rng rng(47);
  std::size_t cases = 0;
  const auto check = [&](std::size_t expected, const Bytes& block) {
    run_fuzz_target(fuzz_input(expected, block));
    ++cases;
  };
  for (const CorpusEntry& seed : seeds) {
    SCOPED_TRACE(seed.name);
    const Bytes& block = seed.block;
    for (std::size_t len = 0; len < block.size(); ++len) {
      check(seed.expected,
            Bytes(block.begin(), block.begin() + static_cast<std::ptrdiff_t>(len)));
    }
    for (std::size_t delta : {std::size_t{1}, std::size_t{255}}) {
      check(seed.expected + delta, block);
      if (seed.expected >= delta) check(seed.expected - delta, block);
    }
    if (block.empty()) continue;
    for (int i = 0; i < 300; ++i) {
      Bytes mangled = block;
      for (int flips = 1 + static_cast<int>(rng.uniform_index(3)); flips > 0; --flips) {
        mangled[rng.uniform_index(mangled.size())] ^=
            static_cast<std::uint8_t>(1u << rng.uniform_index(8));
      }
      check(seed.expected, mangled);
    }
    const SequenceMarks marks = sequence_marks(block);
    for (std::size_t at : marks.offsets) {
      const int random_offset = static_cast<int>(rng.uniform_index(0x10000));
      for (int offset : {0, 1, 0xFFFF, random_offset}) {
        Bytes mangled = block;
        mangled[at] = static_cast<std::uint8_t>(offset);
        mangled[at + 1] = static_cast<std::uint8_t>(offset >> 8);
        check(seed.expected, mangled);
      }
    }
    for (std::size_t at : marks.tokens) {
      // Force a literal or match length code of 15 and splice in a run of
      // 255-bytes: lengths far past the input and the expected size.
      for (std::uint8_t nibble : {std::uint8_t{0xF0}, std::uint8_t{0x0F}}) {
        for (std::size_t run : {std::size_t{1}, std::size_t{64}}) {
          Bytes mangled = block;
          mangled[at] |= nibble;
          const auto pos = mangled.begin() + static_cast<std::ptrdiff_t>(at + 1);
          mangled.insert(pos, run, 255);
          check(seed.expected, mangled);
        }
      }
    }
  }
  EXPECT_GT(cases, 5'000u);
}

}  // namespace
}  // namespace xt
