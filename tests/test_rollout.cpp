#include "algo/rollout.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

// tests/fuzz/rollout_fuzz.cpp
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size);

namespace xt {
namespace {

RolloutBatch sample_batch(std::size_t steps, std::size_t obs_dim,
                          std::uint64_t seed) {
  Rng rng(seed);
  RolloutBatch batch;
  batch.weights_version = 7;
  batch.explorer_index = 3;
  for (std::size_t i = 0; i < steps; ++i) {
    RolloutStep step;
    for (std::size_t d = 0; d < obs_dim; ++d) {
      step.observation.push_back(static_cast<float>(rng.normal()));
    }
    step.action = static_cast<std::int32_t>(rng.uniform_index(4));
    step.reward = static_cast<float>(rng.normal());
    step.done = rng.bernoulli(0.1);
    step.behavior_logp = static_cast<float>(-rng.uniform());
    batch.steps.push_back(std::move(step));
  }
  for (std::size_t d = 0; d < obs_dim; ++d) {
    batch.final_observation.push_back(static_cast<float>(rng.normal()));
  }
  return batch;
}

TEST(Rollout, SerializeRoundTrip) {
  const RolloutBatch batch = sample_batch(50, 8, 1);
  const auto restored = RolloutBatch::deserialize(batch.serialize());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, batch);
}

TEST(Rollout, EmptyBatchRoundTrip) {
  RolloutBatch batch;
  batch.weights_version = 1;
  const auto restored = RolloutBatch::deserialize(batch.serialize());
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->steps.empty());
  EXPECT_TRUE(restored->final_observation.empty());
}

TEST(Rollout, LargeBatchRoundTrip) {
  const RolloutBatch batch = sample_batch(500, 128, 2);
  const auto restored = RolloutBatch::deserialize(batch.serialize());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->steps.size(), 500u);
  EXPECT_EQ(*restored, batch);
}

TEST(Rollout, SerializedSizeScalesWithSteps) {
  const auto small = sample_batch(10, 128, 3).serialize().size();
  const auto large = sample_batch(100, 128, 3).serialize().size();
  EXPECT_GT(large, small * 8);
  EXPECT_LT(large, small * 12);
}

TEST(Rollout, DeserializeRejectsTruncation) {
  const Bytes full = sample_batch(20, 8, 4).serialize();
  for (std::size_t cut : {0u, 1u, 7u, 50u}) {
    if (cut >= full.size()) continue;
    Bytes truncated(full.begin(), full.begin() + cut);
    EXPECT_FALSE(RolloutBatch::deserialize(truncated).has_value()) << cut;
  }
}

TEST(Rollout, DeserializeRejectsGarbage) {
  Bytes garbage(64, 0xFF);
  EXPECT_FALSE(RolloutBatch::deserialize(garbage).has_value());
}

/// A batch of `steps` steps of 128-float observations and `frame_bytes`-byte
/// frames, the shape of a workload's rollouts.
RolloutBatch workload_batch(std::size_t steps, std::size_t frame_bytes) {
  RolloutBatch batch = sample_batch(steps, 128, 6);
  for (std::size_t i = 0; i < steps; ++i) fill_frame(batch.steps[i].frame, frame_bytes, i);
  return batch;
}

TEST(Rollout, SerializeAllocatesExactlyTheBody) {
  // The buffer is allocated once, at the body's size: nothing is left over
  // from a reserve that guessed, and no growth copied it. The sizes are the
  // workloads' rollout bodies: impala_bulk_3m, ppo_sync_2m, dqn_stream_*.
  const std::pair<RolloutBatch, std::size_t> shapes[] = {
      {workload_batch(500, 28'000), 14'271'036},
      {workload_batch(500, 2'000), 1'271'036},
      {workload_batch(4, 0), 2'700},
  };
  for (const auto& [batch, size] : shapes) {
    const Bytes body = batch.serialize();
    EXPECT_EQ(body.size(), size);
    EXPECT_EQ(body.capacity(), body.size());
  }

  RolloutBatch empty;
  RolloutBatch done_last = sample_batch(5, 128, 7);
  done_last.steps.back().done = true;
  done_last.final_observation.clear();
  RolloutBatch uneven = sample_batch(6, 16, 8);
  for (std::size_t i = 0; i < uneven.steps.size(); ++i) {
    uneven.steps[i].observation.resize(i * 7);
    fill_frame(uneven.steps[i].frame, i * 1'000 + 3, i);
  }
  for (const RolloutBatch* batch : {&empty, &done_last, &uneven}) {
    const Bytes body = batch->serialize();
    EXPECT_EQ(body.capacity(), body.size());
    const auto restored = RolloutBatch::deserialize(body);
    ASSERT_TRUE(restored.has_value());
    EXPECT_EQ(*restored, *batch);
  }
}

// ---------------------------------------------------------------------------
// RolloutBatch::deserialize fuzz target (tests/fuzz/rollout_fuzz.cpp). It
// aborts on a broken invariant, so a crash here is a failure.
// ---------------------------------------------------------------------------

void run_fuzz_target(const Bytes& input) {
  (void)LLVMFuzzerTestOneInput(input.data(), input.size());
}

std::vector<std::pair<std::string, Bytes>> rollout_corpus() {
  std::vector<std::pair<std::string, Bytes>> entries;
  const std::filesystem::path dir =
      std::filesystem::path(XT_SOURCE_DIR) / "tests/fuzz/corpus/rollout";
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(file.path(), std::ios::binary);
    entries.emplace_back(file.path().filename().string(),
                         Bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>()));
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

TEST(RolloutFuzz, CorpusReplays) {
  // ok_* bodies were written by the serializer as it was before it sized
  // its buffer exactly: IMPALA-, PPO- and DQN-shaped fragments, an empty
  // batch, one that ends on done without a final observation, and steps of
  // different sizes. Each must encode again byte for byte. bad_* bodies
  // each break one rule: truncated inside a frame, a step count past the
  // end, a frame length past the end, an observation length whose x4
  // wraps, and trailing bytes.
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const auto& [name, body] : rollout_corpus()) {
    SCOPED_TRACE(name);
    run_fuzz_target(body);
    const auto batch = RolloutBatch::deserialize(body);
    if (name.rfind("ok_", 0) == 0) {
      ASSERT_TRUE(batch.has_value());
      EXPECT_EQ(batch->serialize(), body);
      ++accepted;
    } else {
      EXPECT_FALSE(batch.has_value());
      ++rejected;
    }
  }
  EXPECT_EQ(accepted, 6u);
  EXPECT_EQ(rejected, 5u);
}

TEST(RolloutFuzz, SeededMutationsOfCorpus) {
  // Over every well-formed corpus body: strict prefixes (each one up to
  // 4 KB, then at a stride that grows with the length), which must be
  // rejected; bit flips anywhere and in the first 600 bytes, where the
  // header and the first step's length fields lie; and every byte of the
  // header and first step's prefix forced to 0x00 and 0xFF.
  Rng rng(67);
  std::size_t cases = 0;
  const auto check = [&](const Bytes& input) {
    run_fuzz_target(input);
    ++cases;
  };
  for (const auto& [name, body] : rollout_corpus()) {
    if (name.rfind("ok_", 0) != 0) continue;
    SCOPED_TRACE(name);
    for (std::size_t len = 0; len < body.size();
         len += len < 4096 ? 1 : 1 + len / 16) {
      const Bytes prefix(body.begin(), body.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_FALSE(RolloutBatch::deserialize(prefix).has_value());
      check(prefix);
    }
    for (int i = 0; i < 300; ++i) {
      Bytes mangled = body;
      const std::size_t region = i % 2 == 0 ? mangled.size() : 600;
      for (int flips = 1 + static_cast<int>(rng.uniform_index(3)); flips > 0; --flips) {
        mangled[rng.uniform_index(std::min(region, mangled.size()))] ^=
            static_cast<std::uint8_t>(1u << rng.uniform_index(8));
      }
      check(mangled);
    }
    for (std::size_t at = 0; at < std::min<std::size_t>(body.size(), 48); ++at) {
      for (const std::uint8_t value : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
        Bytes forced = body;
        forced[at] = value;
        check(forced);
      }
    }
  }
  EXPECT_GT(cases, 10'000u);
}

}  // namespace
}  // namespace xt
