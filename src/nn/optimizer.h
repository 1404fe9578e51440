#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "nn/matrix.h"

namespace xt::nn {

/// Adam (Kingma & Ba) — the optimizer used for all three algorithms.
class Adam {
 public:
  explicit Adam(float lr, float beta1 = 0.9f, float beta2 = 0.999f,
                float eps = 1e-8f);
  /// Apply one update step; params[i] and grads[i] are paired. With
  /// `max_norm`, the gradients are first scaled in place so that their
  /// global L2 norm is at most *max_norm (global-norm clipping), and the
  /// pre-clip norm is returned; without it, 0. Runs adam_kernel on the
  /// calling thread.
  float step(const std::vector<Matrix*>& params, const std::vector<Matrix*>& grads,
             std::optional<float> max_norm = std::nullopt);

 private:
  float lr_, beta1_, beta2_, eps_;
  std::int64_t t_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

/// One step's Adam constants; bias1 and bias2 are 1 - beta^t.
struct AdamCoefficients {
  float lr, beta1, beta2, eps;
  float bias1, bias2;
};

/// The clip+Adam kernel, defined in matrix.cpp, the translation unit built
/// for the host's vector ISA: a fixed-order pass takes the global
/// gradient norm (only with `max_norm`), then one vector pass per tensor
/// scales each gradient, updates the moments m and v, and steps the
/// parameter. Returns the pre-clip norm, or 0 without `max_norm`.
float adam_kernel(const std::vector<Matrix*>& params, const std::vector<Matrix*>& grads,
                  std::vector<std::vector<float>>& m,
                  std::vector<std::vector<float>>& v, const AdamCoefficients& c,
                  std::optional<float> max_norm);

}  // namespace xt::nn
