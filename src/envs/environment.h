#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace xt {

/// One environment transition, gym-style.
struct StepResult {
  std::vector<float> observation;  ///< next observation
  float reward = 0.0f;
  bool done = false;
};

/// The Environment class of the paper's Section 4.2 API quartet: a wrapper
/// exposing standard gym-style interfaces (reset / step) over both classic
/// testbeds and self-defined environments. Implementations must be fully
/// deterministic given the seed passed to reset().
class Environment {
 public:
  virtual ~Environment() = default;

  /// Start a new episode; returns the initial observation.
  virtual std::vector<float> reset(std::uint64_t seed) = 0;

  /// Apply an action in [0, action_count()).
  virtual StepResult step(std::int32_t action) = 0;

  [[nodiscard]] virtual std::size_t observation_dim() const = 0;
  [[nodiscard]] virtual std::int32_t action_count() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace xt
