#include "algo/rollout.h"

#include <cstring>

#include "serial/binio.h"

namespace xt {

void fill_frame(Bytes& frame, std::size_t size, std::uint64_t salt) {
  frame.resize(size);
  // Cheap position+salt mix written 8 bytes at a time: not a constant run
  // (so it is not trivially compressible) yet near-memset speed — frame
  // generation stands in for the emulator's framebuffer copy, not for
  // compute.
  std::uint64_t state = salt * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    std::memcpy(frame.data() + i, &state, 8);
  }
  for (; i < size; ++i) {
    frame[i] = static_cast<std::uint8_t>(state >> (8 * (i % 8)));
  }
}

namespace {
/// The fields of a step besides its observation and frame bytes: the two
/// length prefixes, action, reward, done and behavior_logp.
constexpr std::size_t kStepFixedBytes = 8 + 4 + 4 + 1 + 4 + 8;
}  // namespace

Bytes RolloutBatch::serialize() const {
  return BinWriter::exact([this](BinWriter& w) {
    w.u32(weights_version);
    w.u32(explorer_index);
    w.f32_vec(final_observation);
    w.u64(steps.size());
    for (const RolloutStep& step : steps) {
      w.f32_vec(step.observation);
      w.i32(step.action);
      w.f32(step.reward);
      w.boolean(step.done);
      w.f32(step.behavior_logp);
      w.bytes(step.frame);
    }
  });
}

std::optional<RolloutBatch> RolloutBatch::deserialize(const Bytes& data) {
  BinReader r(data);
  RolloutBatch out;
  auto version = r.u32();
  auto explorer = r.u32();
  auto final_obs = r.f32_vec();
  auto count = r.u64();
  if (!version || !explorer || !final_obs || !count) return std::nullopt;
  // Every step costs at least kStepFixedBytes, so a count the rest cannot
  // hold is refused before anything is reserved.
  if (*count > r.remaining() / kStepFixedBytes) return std::nullopt;
  out.weights_version = *version;
  out.explorer_index = *explorer;
  out.final_observation = std::move(*final_obs);
  out.steps.reserve(*count);
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto obs = r.f32_vec();
    auto action = r.i32();
    auto reward = r.f32();
    auto done = r.boolean();
    auto logp = r.f32();
    auto frame = r.bytes();
    if (!obs || !action || !reward || !done || !logp || !frame) {
      return std::nullopt;
    }
    out.steps.push_back(RolloutStep{std::move(*obs), *action, *reward, *done,
                                    *logp, std::move(*frame)});
  }
  // The last step must end the body: trailing bytes mean a wrong length.
  if (!r.exhausted()) return std::nullopt;
  return out;
}

}  // namespace xt
