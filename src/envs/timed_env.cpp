#include "envs/timed_env.h"

#include <chrono>
#include <thread>

namespace xt {

TimedEnv::TimedEnv(std::unique_ptr<Environment> inner, std::int64_t step_delay_ns)
    : inner_(std::move(inner)), step_delay_ns_(step_delay_ns) {}

std::vector<float> TimedEnv::reset(std::uint64_t seed) {
  return inner_->reset(seed);
}

StepResult TimedEnv::step(std::int32_t action) {
  // A plain sleep_for, not a modeled wait with a precise tail: the point is
  // to yield the core to other explorers, exactly like an emulator blocked
  // on its own work would on a many-core testbed.
  std::this_thread::sleep_for(std::chrono::nanoseconds(step_delay_ns_));
  return inner_->step(action);
}

}  // namespace xt
