#include "nn/optimizer.h"

#include <cassert>
#include <cmath>

#include "common/thread_pool.h"

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
  if (compute_threads() != 0) {
    return adam_kernel(params, grads, m_, v_, {lr_, beta1_, beta2_, eps_, bias1, bias2},
                       max_norm);
  }
  // Serial mode: the pre-kernel scalar loops, built with the stock flags of
  // this translation unit, so results stay bit-identical to them.
  float norm = 0.0f;
  if (max_norm) {
    double sq = 0.0;
    for (const Matrix* g : grads) {
      for (float v : g->data()) sq += static_cast<double>(v) * v;
    }
    norm = static_cast<float>(std::sqrt(sq));
    if (norm > *max_norm && norm > 0.0f) {
      const float scale = *max_norm / norm;
      for (Matrix* g : grads) {
        for (float& v : g->data()) v *= scale;
      }
    }
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto& p = params[i]->data();
    const auto& g = grads[i]->data();
    auto& m = m_[i];
    auto& v = v_[i];
    assert(p.size() == g.size());
    for (std::size_t j = 0; j < p.size(); ++j) {
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * g[j];
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * g[j] * g[j];
      const float m_hat = m[j] / bias1;
      const float v_hat = v[j] / bias2;
      p[j] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
    }
  }
  return norm;
}

}  // namespace xt::nn
