#include "nn/optimizer.h"

#include <cassert>
#include <cmath>

namespace xt::nn {

Adam::Adam(float lr, float beta1, float beta2, float eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

float Adam::step(const std::vector<Matrix*>& params, const std::vector<Matrix*>& grads,
                 std::optional<float> max_norm) {
  assert(params.size() == grads.size());
  if (m_.size() != params.size()) {
    m_.clear();
    v_.clear();
    for (const Matrix* p : params) {
      m_.emplace_back(p->size(), 0.0f);
      v_.emplace_back(p->size(), 0.0f);
    }
  }
  ++t_;
  const float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  return adam_kernel(params, grads, m_, v_, {lr_, beta1_, beta2_, eps_, bias1, bias2},
                     max_norm);
}

}  // namespace xt::nn
