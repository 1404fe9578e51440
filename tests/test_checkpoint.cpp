#include "framework/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "algo/factory.h"
#include "common/rng.h"
#include "nn/mlp.h"

// tests/fuzz/checkpoint_fuzz.cpp
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size);

namespace xt {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "xt_checkpoint_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".ckpt";
    std::remove(path_.c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  std::string path_;
};

TEST_F(CheckpointTest, SaveThenLoadRoundTrips) {
  Checkpointer checkpointer(path_, 1);
  const Bytes weights = {1, 2, 3, 4, 5};
  ASSERT_TRUE(checkpointer.save(weights, 7, 12345));
  const auto snapshot = Checkpointer::load(path_);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->weights, weights);
  EXPECT_EQ(snapshot->weights_version, 7u);
  EXPECT_EQ(snapshot->steps_consumed, 12345u);
}

TEST_F(CheckpointTest, MaybeSaveRespectsInterval) {
  Checkpointer checkpointer(path_, 10);
  const Bytes weights = {9};
  EXPECT_TRUE(checkpointer.maybe_save(weights, 10, 1));   // first save
  EXPECT_FALSE(checkpointer.maybe_save(weights, 15, 2));  // too soon
  EXPECT_TRUE(checkpointer.maybe_save(weights, 20, 3));
  EXPECT_EQ(checkpointer.saves(), 2u);
}

TEST_F(CheckpointTest, LoadMissingFileFails) {
  EXPECT_FALSE(Checkpointer::load(path_).has_value());
}

TEST_F(CheckpointTest, LoadRejectsCorruptFile) {
  {
    std::FILE* file = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    const char garbage[] = "not a checkpoint";
    std::fwrite(garbage, 1, sizeof(garbage), file);
    std::fclose(file);
  }
  EXPECT_FALSE(Checkpointer::load(path_).has_value());
}

TEST_F(CheckpointTest, LoadRejectsMagicOnlyFile) {
  // An interrupted (hypothetical version-0) writer could leave just the
  // magic — or magic + format — on disk. Such stubs must never load.
  {
    std::FILE* file = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    const std::uint32_t magic_and_version[2] = {0x50435458u, 0u};
    std::fwrite(magic_and_version, sizeof(magic_and_version), 1, file);
    std::fclose(file);
  }
  EXPECT_FALSE(Checkpointer::load(path_).has_value());
}

TEST_F(CheckpointTest, LoadRejectsTruncatedPayload) {
  Checkpointer checkpointer(path_, 1);
  ASSERT_TRUE(checkpointer.save({1, 2, 3, 4, 5, 6, 7, 8}, 3, 100));
  // Chop the tail off the payload: the length prefix now claims more bytes
  // than the file holds.
  std::FILE* file = std::fopen(path_.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fseek(file, 0, SEEK_SET);
  Bytes data(static_cast<std::size_t>(size));
  ASSERT_EQ(std::fread(data.data(), 1, data.size(), file), data.size());
  std::fclose(file);
  data.resize(data.size() - 3);
  file = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  std::fwrite(data.data(), 1, data.size(), file);
  std::fclose(file);
  EXPECT_FALSE(Checkpointer::load(path_).has_value());
}

TEST_F(CheckpointTest, LoadRejectsTrailingGarbage) {
  // A payload length that undershoots the file (e.g. two checkpoints
  // concatenated by a broken copy) must also be rejected: the prefix no
  // longer accounts for the file's actual size.
  Checkpointer checkpointer(path_, 1);
  ASSERT_TRUE(checkpointer.save({1, 2, 3}, 3, 100));
  std::FILE* file = std::fopen(path_.c_str(), "ab");
  ASSERT_NE(file, nullptr);
  const char junk[] = "junk";
  std::fwrite(junk, 1, sizeof(junk), file);
  std::fclose(file);
  EXPECT_FALSE(Checkpointer::load(path_).has_value());
}

TEST_F(CheckpointTest, LoadRejectsOversizedLengthPrefix) {
  // Hand-craft a header whose payload length prefix claims far more than
  // the file contains; the bounds-checked reader must fail cleanly.
  {
    std::FILE* file = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    const std::uint32_t magic = 0x50435458u, format = 1u, version = 2u;
    const std::uint64_t steps = 50, claimed_len = 1u << 30;
    std::fwrite(&magic, sizeof(magic), 1, file);
    std::fwrite(&format, sizeof(format), 1, file);
    std::fwrite(&version, sizeof(version), 1, file);
    std::fwrite(&steps, sizeof(steps), 1, file);
    std::fwrite(&claimed_len, sizeof(claimed_len), 1, file);
    const char partial[] = "abc";
    std::fwrite(partial, 1, sizeof(partial), file);
    std::fclose(file);
  }
  EXPECT_FALSE(Checkpointer::load(path_).has_value());
}

TEST_F(CheckpointTest, NewerSaveOverwritesOlder) {
  Checkpointer checkpointer(path_, 1);
  ASSERT_TRUE(checkpointer.save({1}, 1, 10));
  ASSERT_TRUE(checkpointer.save({2, 2}, 5, 50));
  const auto snapshot = Checkpointer::load(path_);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->weights, (Bytes{2, 2}));
  EXPECT_EQ(snapshot->weights_version, 5u);
}

TEST_F(CheckpointTest, RestoresRealAlgorithmWeights) {
  // End-to-end fault-tolerance path: snapshot a trained learner's weights,
  // "crash", restore into a fresh algorithm via AlgoSetup::initial_weights.
  AlgoSetup setup;
  setup.kind = AlgoKind::kImpala;
  setup.impala.hidden = {8};
  auto original = make_algorithm(setup, 4, 2);

  Checkpointer checkpointer(path_, 1);
  ASSERT_TRUE(checkpointer.save(original->weights(),
                                original->weights_version(), 999));

  const auto snapshot = Checkpointer::load(path_);
  ASSERT_TRUE(snapshot.has_value());
  AlgoSetup restored_setup = setup;
  restored_setup.seed = 4242;  // different init would diverge without restore
  restored_setup.initial_weights = snapshot->weights;
  auto restored = make_algorithm(restored_setup, 4, 2);
  EXPECT_EQ(restored->weights(), original->weights());
}

// ---------------------------------------------------------------------------
// Checkpointer::decode fuzz target (tests/fuzz/checkpoint_fuzz.cpp). It
// aborts on a broken invariant, so a crash here is a failure.
// ---------------------------------------------------------------------------

void run_fuzz_target(const Bytes& input) {
  (void)LLVMFuzzerTestOneInput(input.data(), input.size());
}

std::vector<std::pair<std::string, Bytes>> checkpoint_corpus() {
  std::vector<std::pair<std::string, Bytes>> entries;
  const std::filesystem::path dir =
      std::filesystem::path(XT_SOURCE_DIR) / "tests/fuzz/corpus/checkpoint";
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(file.path(), std::ios::binary);
    entries.emplace_back(file.path().filename().string(),
                         Bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>()));
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

TEST(CheckpointFuzz, CorpusReplays) {
  // ok_* files were written by Checkpointer::save, one of them with an Mlp's
  // weights; bad_* files each break one rule of decode: a short file, the
  // magic, the format, a payload length past the end, trailing bytes.
  std::size_t mlp_snapshots = 0;
  std::size_t rejects = 0;
  for (const auto& [name, file] : checkpoint_corpus()) {
    SCOPED_TRACE(name);
    run_fuzz_target(file);
    const auto snapshot = Checkpointer::decode(file);
    if (name.rfind("ok_", 0) == 0) {
      ASSERT_TRUE(snapshot.has_value());
      if (nn::Mlp::deserialize(snapshot->weights)) ++mlp_snapshots;
    } else {
      std::string error;
      EXPECT_FALSE(Checkpointer::decode(file, &error).has_value());
      EXPECT_FALSE(error.empty());
      ++rejects;
    }
  }
  EXPECT_EQ(mlp_snapshots, 1u);
  EXPECT_EQ(rejects, 5u);
}

TEST(CheckpointFuzz, SeededMutationsOfCorpus) {
  // Over every well-formed corpus file: each strict prefix, which must be
  // rejected; bit flips anywhere and in the header; every header byte
  // forced to 0x00 and 0xFF; and bit flips in an Mlp blob re-wrapped as a
  // valid checkpoint, so they reach the Mlp parser.
  Rng rng(61);
  std::size_t cases = 0;
  const auto check = [&](const Bytes& input) {
    run_fuzz_target(input);
    ++cases;
  };
  for (const auto& [name, file] : checkpoint_corpus()) {
    if (name.rfind("ok_", 0) != 0) continue;
    SCOPED_TRACE(name);
    for (std::size_t len = 0; len < file.size(); ++len) {
      const Bytes prefix(file.begin(), file.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_FALSE(Checkpointer::decode(prefix).has_value());
      check(prefix);
    }
    for (int i = 0; i < 300; ++i) {
      Bytes mangled = file;
      const std::size_t region = i % 2 == 0 ? mangled.size() : 28;
      mangled[rng.uniform_index(std::min(region, mangled.size()))] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_index(8));
      check(mangled);
    }
    for (std::size_t at = 0; at < 28; ++at) {
      for (const std::uint8_t value : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
        Bytes forced = file;
        forced[at] = value;
        check(forced);
      }
    }
    const auto snapshot = Checkpointer::decode(file);
    ASSERT_TRUE(snapshot.has_value());
    for (int i = 0; i < 300 && !snapshot->weights.empty(); ++i) {
      Bytes weights = snapshot->weights;
      weights[rng.uniform_index(weights.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_index(8));
      check(Checkpointer::encode(weights, snapshot->weights_version,
                                 snapshot->steps_consumed));
    }
  }
  EXPECT_GT(cases, 2'000u);
}

}  // namespace
}  // namespace xt
