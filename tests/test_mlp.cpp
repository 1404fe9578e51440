#include "nn/mlp.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "grad_check.h"
#include "nn/losses.h"

namespace xt::nn {
namespace {

Mlp small_net(Activation act, std::uint64_t seed = 1) {
  Rng rng(seed);
  return Mlp(3, {{5, act}, {4, act}, {2, Activation::kIdentity}}, rng);
}

TEST(Mlp, OutputShape) {
  Mlp net = small_net(Activation::kRelu);
  EXPECT_EQ(net.input_dim(), 3u);
  EXPECT_EQ(net.output_dim(), 2u);
  Rng rng(2);
  const Matrix x = Matrix::he_normal(7, 3, rng);
  const Matrix y = net.forward(x);
  EXPECT_EQ(y.rows(), 7u);
  EXPECT_EQ(y.cols(), 2u);
}

TEST(Mlp, ForwardAndForwardTrainAgree) {
  Mlp net = small_net(Activation::kTanh);
  Rng rng(3);
  const Matrix x = Matrix::he_normal(4, 3, rng);
  const Matrix a = net.forward(x);
  const Matrix b = net.forward_train(x);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
  }
}

TEST(Mlp, ParameterCountMatchesArchitecture) {
  Mlp net = small_net(Activation::kRelu);
  // 3*5+5 + 5*4+4 + 4*2+2 = 20 + 24 + 10
  EXPECT_EQ(net.parameter_count(), 54u);
  EXPECT_EQ(net.parameters().size(), 6u);
  EXPECT_EQ(net.gradients().size(), 6u);
}

class MlpGradCheckTest : public ::testing::TestWithParam<Activation> {};

TEST_P(MlpGradCheckTest, BackpropMatchesNumericalGradients) {
  Rng init_rng(11);
  Mlp net(3, {{6, GetParam()}, {5, GetParam()}, {2, Activation::kIdentity}},
          init_rng);
  Rng data_rng(13);
  const Matrix x = Matrix::he_normal(8, 3, data_rng);
  Matrix target = Matrix::he_normal(8, 2, data_rng);

  const auto loss_fn = [&]() -> float {
    const Matrix pred = net.forward_train(x);
    Matrix grad;
    const float loss = mse_loss(pred, target, grad);
    net.backward(grad);
    return loss;
  };
  // ReLU kinks make the numeric derivative discontinuous at a few params;
  // check the 95th percentile there and the strict max elsewhere.
  const double quantile = GetParam() == Activation::kRelu ? 0.95 : 1.0;
  EXPECT_LT(max_gradient_error(net, loss_fn, 1e-2f, quantile), 2e-2);
}

INSTANTIATE_TEST_SUITE_P(Activations, MlpGradCheckTest,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kTanh,
                                           Activation::kRelu));

/// Runs the enclosing scope on one compute thread.
struct SerialMode {
  SerialMode() { set_compute_threads(1); }
  ~SerialMode() { set_compute_threads(-1); }
};

struct TrainStep {
  Matrix output;
  std::vector<Matrix> gradients;  ///< weight, bias per layer
};

/// One training step of a net with zeroed gradients, written out by hand
/// from the whole-matrix kernels: matmul_bias, then tanh_inplace or
/// max(z, 0), forward; each activation's derivative recomputed from its
/// pre-activation, then matmul_at and matmul_bt, backward.
TrainStep reference_train_step(Mlp& net, const std::vector<Activation>& acts,
                               const Matrix& x, const Matrix& grad_out) {
  const std::vector<Matrix*> params = net.parameters();
  std::vector<Matrix> inputs, preacts;
  Matrix h = x;
  for (std::size_t l = 0; l < acts.size(); ++l) {
    Matrix z = matmul_bias(h, *params[2 * l], *params[2 * l + 1]);
    inputs.push_back(h);
    preacts.push_back(z);
    if (acts[l] == Activation::kTanh) tanh_inplace(z);
    if (acts[l] == Activation::kRelu) {
      for (float& v : z.data()) v = v > 0.0f ? v : 0.0f;
    }
    h = z;
  }

  TrainStep step{h, std::vector<Matrix>(2 * acts.size())};
  Matrix g = grad_out;
  for (std::size_t l = acts.size(); l-- > 0;) {
    if (acts[l] == Activation::kTanh) {
      // The kernel, not `g *= 1 - t * t` here: this file may be built for
      // another vector ISA than matrix.cpp, and round differently.
      Matrix t = preacts[l];
      tanh_inplace(t);
      tanh_grad_inplace(g.data().data(), t.data().data(), g.size());
    }
    if (acts[l] == Activation::kRelu) {
      for (std::size_t i = 0; i < g.size(); ++i) {
        if (preacts[l].data()[i] <= 0.0f) g.data()[i] = 0.0f;
      }
    }
    step.gradients[2 * l] = matmul_at(inputs[l], g);
    Matrix bias_grad(1, g.cols());
    for (std::size_t i = 0; i < g.rows(); ++i)
      for (std::size_t j = 0; j < g.cols(); ++j) bias_grad.at(0, j) += g.at(i, j);
    step.gradients[2 * l + 1] = bias_grad;
    if (l > 0) g = matmul_bt(g, *params[2 * l]);
  }
  return step;
}

// Caching layer outputs, deriving tanh' and ReLU' from them, splitting the
// step into row pieces and skipping the input gradient must leave the
// training step bit-identical to the whole-matrix computation it replaced.
TEST(Mlp, SerialTrainingStepBitIdenticalToReference) {
  SerialMode serial;
  for (Activation act : {Activation::kTanh, Activation::kRelu}) {
    const std::vector<Activation> acts = {act, act, Activation::kIdentity};
    Rng init_rng(41);
    Mlp net(6, {{16, acts[0]}, {12, acts[1]}, {3, acts[2]}}, init_rng);
    Rng data_rng(43);
    const Matrix x = Matrix::he_normal(9, 6, data_rng);
    const Matrix grad_out = Matrix::he_normal(9, 3, data_rng);
    const TrainStep want = reference_train_step(net, acts, x, grad_out);

    EXPECT_TRUE(net.forward_train(x) == want.output);
    net.backward(grad_out);
    const std::vector<Matrix*> grads = net.gradients();
    ASSERT_EQ(grads.size(), want.gradients.size());
    for (std::size_t i = 0; i < grads.size(); ++i) {
      EXPECT_TRUE(*grads[i] == want.gradients[i])
          << "gradient " << i << ", activation " << static_cast<int>(act);
    }
  }
}

// The pieces of a training step: row shards of the forward and backward
// passes, then the full-batch weight gradients, give every bit that
// forward_train + backward give on the whole batch, wherever the shards are
// cut (104 + 104, and 7 + 201, off the 8-row blocks), in serial mode and
// at any thread count. Widths 48 and 40 run the GEMM's panel pairs, a lone
// panel and packed partial panels.
TEST(Mlp, RowShardStepBitIdenticalToWholeBatch) {
  Rng data_rng(61);
  const Matrix x = Matrix::he_normal(208, 24, data_rng);
  const Matrix grad_out = Matrix::he_normal(208, 5, data_rng);
  using Rows = std::pair<std::size_t, std::size_t>;
  for (int threads : {0, 1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    set_compute_threads(threads);
    for (Activation act : {Activation::kTanh, Activation::kRelu}) {
      SCOPED_TRACE("activation " + std::to_string(static_cast<int>(act)));
      const auto make_net = [act] {
        Rng init_rng(62);
        return Mlp(24, {{48, act}, {40, act}, {5, Activation::kIdentity}}, init_rng);
      };
      Mlp whole = make_net();
      const Matrix want_out = whole.forward_train(x);
      whole.backward(grad_out);
      const std::vector<Matrix*> want = whole.gradients();
      for (const std::size_t cut : {104, 7}) {
        SCOPED_TRACE("cut " + std::to_string(cut));
        Mlp net = make_net();
        net.begin_train(x.rows());
        net.input() = x;
        Matrix out(x.rows(), 5);
        for (const auto& [r0, r1] : {Rows{0, cut}, Rows{cut, x.rows()}}) {
          const Matrix rows = net.forward_rows(r0, r1);
          std::copy(rows.data().begin(), rows.data().end(), out.row_ptr(r0));
          net.backward_rows(grad_out.slice_rows(r0, r1), r0);
        }
        Mlp::accumulate_weight_grads({&net}, 3);
        EXPECT_TRUE(out == want_out);
        EXPECT_TRUE(net.output() == want_out);
        const std::vector<Matrix*> grads = net.gradients();
        for (std::size_t i = 0; i < grads.size(); ++i) {
          EXPECT_TRUE(*grads[i] == *want[i]) << "gradient " << i;
        }
      }
    }
  }
  set_compute_threads(-1);
}

TEST(Mlp, ZeroGradClearsAccumulation) {
  Mlp net = small_net(Activation::kRelu);
  Rng rng(5);
  const Matrix x = Matrix::he_normal(2, 3, rng);
  (void)net.forward_train(x);
  net.backward(Matrix(2, 2, 1.0f));
  net.zero_grad();
  for (Matrix* g : net.gradients()) {
    for (float v : g->data()) EXPECT_FLOAT_EQ(v, 0.0f);
  }
}

TEST(Mlp, GradientsAccumulateAcrossBackwardCalls) {
  Mlp net = small_net(Activation::kIdentity);
  Rng rng(5);
  const Matrix x = Matrix::he_normal(2, 3, rng);
  (void)net.forward_train(x);
  net.backward(Matrix(2, 2, 1.0f));
  const auto first = net.gradients()[0]->data();
  (void)net.forward_train(x);
  net.backward(Matrix(2, 2, 1.0f));
  const auto second = net.gradients()[0]->data();
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_NEAR(second[i], 2.0f * first[i], 1e-5);
  }
}

TEST(Mlp, SerializeDeserializeRoundTrip) {
  Mlp net = small_net(Activation::kTanh, 21);
  const Bytes blob = net.serialize();
  auto restored = Mlp::deserialize(blob);
  ASSERT_TRUE(restored.has_value());
  Rng rng(5);
  const Matrix x = Matrix::he_normal(3, 3, rng);
  const Matrix a = net.forward(x);
  const Matrix b = restored->forward(x);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
  }
}

TEST(Mlp, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Mlp::deserialize({1, 2, 3}).has_value());
}

TEST(Mlp, LoadWeightsAppliesSnapshot) {
  Mlp a = small_net(Activation::kRelu, 1);
  Mlp b = small_net(Activation::kRelu, 2);
  ASSERT_TRUE(b.load_weights(a.serialize()));
  Rng rng(5);
  const Matrix x = Matrix::he_normal(2, 3, rng);
  const Matrix ya = a.forward(x);
  const Matrix yb = b.forward(x);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_FLOAT_EQ(ya.data()[i], yb.data()[i]);
  }
}

TEST(Mlp, LoadWeightsRejectsArchitectureMismatch) {
  Mlp a = small_net(Activation::kRelu);
  Rng rng(9);
  Mlp wider(3, {{16, Activation::kRelu}, {2, Activation::kIdentity}}, rng);
  EXPECT_FALSE(a.load_weights(wider.serialize()));
  Mlp other_input(4, {{5, Activation::kRelu}, {4, Activation::kRelu},
                      {2, Activation::kIdentity}}, rng);
  EXPECT_FALSE(a.load_weights(other_input.serialize()));
}

TEST(Mlp, CopyParametersFrom) {
  Mlp a = small_net(Activation::kTanh, 31);
  Mlp b = small_net(Activation::kTanh, 32);
  b.copy_parameters_from(a);
  EXPECT_EQ(a.serialize(), b.serialize());
}

}  // namespace
}  // namespace xt::nn
