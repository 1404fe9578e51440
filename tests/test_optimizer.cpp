#include "nn/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace xt::nn {
namespace {

/// Every test leaves the process in auto mode, whatever it configured.
class Optimizer : public ::testing::Test {
 protected:
  void TearDown() override { set_compute_threads(-1); }
};

// Minimize f(x) = 0.5 * sum x^2 whose gradient is x itself.
double optimize_quadratic(Adam& opt, int steps) {
  Matrix x(1, 4);
  x.data() = {4.0f, -3.0f, 2.0f, -1.0f};
  Matrix g(1, 4);
  for (int i = 0; i < steps; ++i) {
    g.data() = x.data();  // gradient of 0.5 x^2
    opt.step({&x}, {&g});
  }
  double norm = 0.0;
  for (float v : x.data()) norm += static_cast<double>(v) * v;
  return std::sqrt(norm);
}

TEST_F(Optimizer, AdamConvergesOnQuadratic) {
  Adam opt(0.1f);
  EXPECT_LT(optimize_quadratic(opt, 500), 1e-2);
}

TEST_F(Optimizer, AdamFirstStepIsLearningRateSized) {
  // Bias correction makes Adam's first update ~lr * sign(grad).
  Adam opt(0.01f);
  Matrix x(1, 1, 5.0f);
  Matrix g(1, 1, 123.0f);
  opt.step({&x}, {&g});
  EXPECT_NEAR(x.at(0, 0), 5.0f - 0.01f, 1e-4);
}

TEST_F(Optimizer, StepHandlesMultipleParameterTensors) {
  Adam opt(0.1f);
  Matrix a(2, 2, 1.0f), b(1, 3, -1.0f);
  Matrix ga(2, 2, 1.0f), gb(1, 3, -1.0f);
  opt.step({&a, &b}, {&ga, &gb});
  EXPECT_LT(a.at(0, 0), 1.0f);
  EXPECT_GT(b.at(0, 0), -1.0f);
}

// Clipping is Adam::step's max-norm argument: the gradients are scaled in
// place before the update, and the pre-clip norm is returned.
TEST_F(Optimizer, ClipGradientsLeavesSmallNormsAlone) {
  Adam opt(0.01f);
  Matrix p(1, 2);
  Matrix g(1, 2);
  g.data() = {0.3f, 0.4f};  // norm 0.5
  const float norm = opt.step({&p}, {&g}, 1.0f);
  EXPECT_NEAR(norm, 0.5f, 1e-6);
  EXPECT_FLOAT_EQ(g.at(0, 0), 0.3f);
}

TEST_F(Optimizer, ClipGradientsRescalesLargeNorms) {
  Adam opt(0.01f);
  Matrix p(1, 2);
  Matrix g(1, 2);
  g.data() = {3.0f, 4.0f};  // norm 5
  const float norm = opt.step({&p}, {&g}, 1.0f);
  EXPECT_NEAR(norm, 5.0f, 1e-5);
  EXPECT_NEAR(g.at(0, 0), 0.6f, 1e-5);
  EXPECT_NEAR(g.at(0, 1), 0.8f, 1e-5);
}

TEST_F(Optimizer, ClipGradientsAcrossTensors) {
  Adam opt(0.01f);
  Matrix pa(1, 1), pb(1, 1);
  Matrix a(1, 1, 3.0f), b(1, 1, 4.0f);
  (void)opt.step({&pa, &pb}, {&a, &b}, 1.0f);
  double norm = std::sqrt(a.at(0, 0) * a.at(0, 0) + b.at(0, 0) * b.at(0, 0));
  EXPECT_NEAR(norm, 1.0, 1e-5);
}

// ---- Adam against a hand-written reference --------------------------------

/// Tensor sizes around the vector width (a lone element, a short tail, one
/// vector plus one) and a large one with a 5-element tail.
const std::size_t kSizes[] = {1, 3, 17, 16'389};

struct Tensors {
  std::vector<Matrix> params, grads;
};

std::vector<Matrix*> ptrs(std::vector<Matrix>& ms) {
  std::vector<Matrix*> out;
  for (Matrix& m : ms) out.push_back(&m);
  return out;
}

/// One parameter and one gradient tensor per size; `grad_scale` sets the
/// gradient norm relative to the clip threshold of 1.
Tensors make_tensors(float grad_scale, std::uint64_t seed) {
  Rng rng(seed);
  Tensors t;
  for (std::size_t n : kSizes) {
    Matrix p(1, n), g(1, n);
    for (float& v : p.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
    for (float& v : g.data()) v = static_cast<float>(rng.normal(0.0, grad_scale));
    t.params.push_back(std::move(p));
    t.grads.push_back(std::move(g));
  }
  return t;
}

/// Clip-then-Adam written out by hand: a double-precision global norm, then
/// the textbook update with the bias corrections divided out per element.
class ReferenceAdam {
 public:
  explicit ReferenceAdam(float lr) : lr_(lr) {}

  float step(std::vector<Matrix>& params, std::vector<Matrix>& grads, float max_norm) {
    if (m_.empty()) {
      for (const Matrix& p : params) {
        m_.emplace_back(p.size(), 0.0f);
        v_.emplace_back(p.size(), 0.0f);
      }
    }
    double sq = 0.0;
    for (const Matrix& g : grads) {
      for (float x : g.data()) sq += static_cast<double>(x) * x;
    }
    const auto norm = static_cast<float>(std::sqrt(sq));
    if (norm > max_norm && norm > 0.0f) {
      const float scale = max_norm / norm;
      for (Matrix& g : grads) {
        for (float& x : g.data()) x *= scale;
      }
    }
    ++t_;
    const float bias1 = 1.0f - std::pow(kBeta1, static_cast<float>(t_));
    const float bias2 = 1.0f - std::pow(kBeta2, static_cast<float>(t_));
    for (std::size_t i = 0; i < params.size(); ++i) {
      std::vector<float>& p = params[i].data();
      const std::vector<float>& g = grads[i].data();
      for (std::size_t j = 0; j < p.size(); ++j) {
        m_[i][j] = kBeta1 * m_[i][j] + (1.0f - kBeta1) * g[j];
        v_[i][j] = kBeta2 * v_[i][j] + (1.0f - kBeta2) * g[j] * g[j];
        const float m_hat = m_[i][j] / bias1;
        const float v_hat = v_[i][j] / bias2;
        p[j] -= lr_ * m_hat / (std::sqrt(v_hat) + kEps);
      }
    }
    return norm;
  }

 private:
  static constexpr float kBeta1 = 0.9f;
  static constexpr float kBeta2 = 0.999f;
  static constexpr float kEps = 1e-8f;
  float lr_;
  std::int64_t t_ = 0;
  std::vector<std::vector<float>> m_, v_;
};

constexpr float kLr = 1e-2f;
constexpr int kSteps = 3;

/// kSteps clip-at-norm-1 steps of `opt` on fresh gradients; returns the
/// parameters, the clipped gradients of the last step and a row of the
/// pre-clip norms.
template <typename Opt>
std::vector<Matrix> run(Opt& opt, float grad_scale) {
  Tensors t = make_tensors(grad_scale, 11);
  Matrix norms(1, kSteps);
  for (int s = 0; s < kSteps; ++s) {
    t.grads = make_tensors(grad_scale, 20 + s).grads;
    if constexpr (std::is_same_v<Opt, Adam>) {
      norms.at(0, s) = opt.step(ptrs(t.params), ptrs(t.grads), 1.0f);
    } else {
      norms.at(0, s) = opt.step(t.params, t.grads, 1.0f);
    }
  }
  std::vector<Matrix> out = t.params;
  out.insert(out.end(), t.grads.begin(), t.grads.end());
  out.push_back(norms);
  return out;
}

std::vector<Matrix> run_adam(float grad_scale) {
  Adam opt(kLr);
  return run(opt, grad_scale);
}

std::vector<Matrix> run_reference(float grad_scale) {
  ReferenceAdam opt(kLr);
  return run(opt, grad_scale);
}

// Gradient scales whose global norm stays under the threshold of 1 (the
// clip does not bind) and far above it (it binds).
const float kGradScales[] = {1e-3f, 1.0f};

TEST_F(Optimizer, BlockedAdamMatchesReference) {
  set_compute_threads(1);
  for (float scale : kGradScales) {
    const std::vector<Matrix> got = run_adam(scale);
    const std::vector<Matrix> want = run_reference(scale);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(allclose(got[i], want[i], 1e-5f, 1e-4f))
          << "grad scale " << scale << ", tensor " << i;
    }
  }
}

TEST_F(Optimizer, BlockedAdamInvariantAcrossThreadCounts) {
  for (float scale : kGradScales) {
    set_compute_threads(1);
    const std::vector<Matrix> one = run_adam(scale);
    for (int threads : {0, 2, 3, 8}) {
      set_compute_threads(threads);
      EXPECT_TRUE(run_adam(scale) == one)
          << "grad scale " << scale << ", threads " << threads;
    }
  }
}

}  // namespace
}  // namespace xt::nn
