#include "nn/losses.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace xt::nn {
namespace {

TEST(Losses, SoftmaxRowsSumToOne) {
  Matrix logits(3, 4);
  Rng rng(1);
  for (auto& v : logits.data()) v = static_cast<float>(rng.normal(0, 3));
  const Matrix p = softmax(logits);
  for (std::size_t r = 0; r < 3; ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_GT(p.at(r, c), 0.0f);
      sum += p.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(Losses, SoftmaxIsShiftInvariantAndStable) {
  Matrix a = Matrix::from_row({1000.0f, 1001.0f, 999.0f});
  const Matrix p = softmax(a);
  EXPECT_FALSE(std::isnan(p.at(0, 0)));
  Matrix b = Matrix::from_row({0.0f, 1.0f, -1.0f});
  const Matrix q = softmax(b);
  for (std::size_t c = 0; c < 3; ++c) EXPECT_NEAR(p.at(0, c), q.at(0, c), 1e-5);
}

TEST(Losses, LogSoftmaxMatchesLogOfSoftmax) {
  Matrix logits = Matrix::from_row({0.5f, -1.0f, 2.0f});
  const Matrix lp = log_softmax(logits);
  const Matrix p = softmax(logits);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(lp.at(0, c), std::log(p.at(0, c)), 1e-5);
  }
}

TEST(Losses, EntropyOfUniformIsLogN) {
  Matrix logits(1, 8, 0.0f);
  const auto h = entropy(logits);
  EXPECT_NEAR(h[0], std::log(8.0f), 1e-5);
}

TEST(Losses, EntropyOfPeakedIsNearZero) {
  Matrix logits = Matrix::from_row({100.0f, 0.0f, 0.0f});
  EXPECT_NEAR(entropy(logits)[0], 0.0f, 1e-3);
}

TEST(Losses, ActionLogProbsPickRightEntries) {
  Matrix logits = Matrix::from_rows({{1.0f, 2.0f}, {3.0f, 0.0f}});
  const auto lp = action_log_probs(logits, {1, 0});
  const Matrix full = log_softmax(logits);
  EXPECT_FLOAT_EQ(lp[0], full.at(0, 1));
  EXPECT_FLOAT_EQ(lp[1], full.at(1, 0));
}

TEST(Losses, SampleFromLogitsFollowsDistribution) {
  Rng rng(5);
  const float logits[2] = {0.0f, std::log(3.0f)};  // p = {0.25, 0.75}
  int ones = 0;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) {
    ones += sample_from_logits(logits, 2, rng) == 1 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(ones) / kN, 0.75, 0.01);
}

TEST(Losses, ArgmaxRow) {
  const float values[4] = {0.1f, 5.0f, -2.0f, 4.9f};
  EXPECT_EQ(argmax_row(values, 4), 1);
}

TEST(Losses, MseLossAndGradient) {
  const Matrix pred = Matrix::from_row({1.0f, 3.0f});
  const Matrix target = Matrix::from_row({0.0f, 5.0f});
  Matrix grad;
  const float loss = mse_loss(pred, target, grad);
  EXPECT_NEAR(loss, 0.5f * (1.0f + 4.0f) / 2.0f, 1e-6);
  EXPECT_NEAR(grad.at(0, 0), 1.0f / 2.0f, 1e-6);
  EXPECT_NEAR(grad.at(0, 1), -2.0f / 2.0f, 1e-6);
}

TEST(Losses, HuberSelectedQuadraticRegion) {
  Matrix q = Matrix::from_rows({{1.0f, 2.0f}, {3.0f, 4.0f}});
  Matrix grad;
  // Row 0 action 1: pred 2.0, target 1.5 -> d = 0.5 (quadratic).
  const float loss = huber_loss_selected(q, {1.5f, 4.0f}, {1, 1}, grad);
  EXPECT_NEAR(loss, (0.5f * 0.25f + 0.0f) / 2.0f, 1e-6);
  EXPECT_NEAR(grad.at(0, 1), 0.5f / 2.0f, 1e-6);
  EXPECT_NEAR(grad.at(0, 0), 0.0f, 1e-6);  // untouched action
  EXPECT_NEAR(grad.at(1, 1), 0.0f, 1e-6);
}

TEST(Losses, HuberSelectedLinearRegionClampsGradient) {
  Matrix q = Matrix::from_rows({{10.0f, 0.0f}});
  Matrix grad;
  (void)huber_loss_selected(q, {0.0f}, {0}, grad);  // d = 10 -> linear
  EXPECT_NEAR(grad.at(0, 0), 1.0f, 1e-6);           // sign / N with N = 1
}

// Numerically verify policy_gradient against finite differences of the loss
// L = -(1/N) sum coef_i logp(a_i) - entropy_coef/N sum H_i.
TEST(Losses, PolicyGradientMatchesFiniteDifferences) {
  Rng rng(9);
  Matrix logits(3, 4);
  for (auto& v : logits.data()) v = static_cast<float>(rng.normal(0, 1));
  const std::vector<std::int32_t> actions = {2, 0, 3};
  const std::vector<float> coefs = {0.7f, -1.2f, 0.3f};
  const float entropy_coef = 0.05f;

  const auto loss_at = [&](const Matrix& z) -> double {
    const auto lp = action_log_probs(z, actions);
    const auto h = entropy(z);
    double loss = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
      loss -= coefs[i] * lp[i] + entropy_coef * h[i];
    }
    return loss / 3.0;
  };

  const Matrix grad = policy_gradient(logits, actions, coefs, entropy_coef);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    Matrix plus = logits, minus = logits;
    plus.data()[i] += eps;
    minus.data()[i] -= eps;
    const double numeric = (loss_at(plus) - loss_at(minus)) / (2.0 * eps);
    EXPECT_NEAR(grad.data()[i], numeric, 5e-3) << "param " << i;
  }
}

TEST(Losses, PolicyGradientZeroCoefGivesOnlyEntropyTerm) {
  Matrix logits = Matrix::from_row({1.0f, -1.0f, 0.0f});
  const Matrix g0 = policy_gradient(logits, {0}, {0.0f}, 0.0f);
  for (float v : g0.data()) EXPECT_FLOAT_EQ(v, 0.0f);
}

// A batch's gradient rows, computed a few rows at a time with the whole
// batch's row count, are the rows of the gradient over the whole batch.
TEST(Losses, GradientsOfRowSlicesNormalizeByWholeBatch) {
  Rng rng(17);
  const Matrix logits = Matrix::he_normal(9, 3, rng);
  const Matrix pred = Matrix::he_normal(9, 1, rng);
  const Matrix target = Matrix::he_normal(9, 1, rng);
  const std::vector<std::int32_t> actions = {0, 2, 1, 1, 0, 2, 2, 0, 1};
  std::vector<float> coefs(actions.size());
  for (float& c : coefs) c = static_cast<float>(rng.normal());
  const Matrix pg = policy_gradient(logits, actions, coefs, 0.01f);
  Matrix mse_grad;
  (void)mse_loss(pred, target, mse_grad);
  using Rows = std::pair<std::size_t, std::size_t>;
  for (const std::size_t cut : {1, 4, 8}) {
    for (const auto& [r0, r1] : {Rows{0, cut}, Rows{cut, 9}}) {
      const std::vector<std::int32_t> a(actions.begin() + r0, actions.begin() + r1);
      const std::vector<float> c(coefs.begin() + r0, coefs.begin() + r1);
      EXPECT_TRUE(policy_gradient(logits.slice_rows(r0, r1), a, c, 0.01f, 9) ==
                  pg.slice_rows(r0, r1))
          << "rows " << r0 << "-" << r1;
      Matrix grad;
      (void)mse_loss(pred.slice_rows(r0, r1), target.slice_rows(r0, r1), grad, 9);
      EXPECT_TRUE(grad == mse_grad.slice_rows(r0, r1)) << "rows " << r0 << "-" << r1;
    }
  }
}

}  // namespace
}  // namespace xt::nn
