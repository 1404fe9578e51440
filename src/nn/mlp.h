#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "nn/matrix.h"

namespace xt::nn {

enum class Activation : std::uint8_t { kIdentity = 0, kRelu = 1, kTanh = 2 };

struct LayerSpec {
  std::size_t width;
  Activation activation = Activation::kRelu;
};

/// Multi-layer perceptron with explicit forward/backward passes. This is
/// the Model substrate for every DNN in the repo (Q networks, policy
/// networks, value networks). Training mode caches the input batch and each
/// layer's output so backward() can accumulate parameter gradients.
class Mlp {
 public:
  Mlp() = default;
  /// Layers: input_dim -> spec[0].width -> ... -> spec.back().width.
  Mlp(std::size_t input_dim, std::vector<LayerSpec> specs, Rng& rng);

  [[nodiscard]] std::size_t input_dim() const { return input_dim_; }
  [[nodiscard]] std::size_t output_dim() const;

  /// Inference-only forward (no caches).
  [[nodiscard]] Matrix forward(const Matrix& x) const;

  /// Training forward: caches activations for the subsequent backward().
  [[nodiscard]] Matrix forward_train(const Matrix& x);

  /// Backprop: `grad_out` is dLoss/dOutput for the last forward_train batch.
  /// Accumulates into the parameter gradients. dLoss/dInput is not computed:
  /// no caller trains what feeds the network.
  void backward(const Matrix& grad_out);

  void zero_grad();

  /// Flat views over parameters/gradients for the optimizers.
  [[nodiscard]] std::vector<Matrix*> parameters();
  [[nodiscard]] std::vector<Matrix*> gradients();
  [[nodiscard]] std::size_t parameter_count() const;

  /// Copy parameters from another MLP with identical architecture (target
  /// network sync, weight broadcast application).
  void copy_parameters_from(const Mlp& other);

  /// Weight wire format: this is the message body the learner broadcasts to
  /// explorers (paper: blue arrows in Fig. 2).
  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<Mlp> deserialize(const Bytes& data);
  /// Load weights (architecture must match) from serialized form.
  bool load_weights(const Bytes& data);

 private:
  struct Layer {
    Matrix weight;  ///< in x out
    Matrix bias;    ///< 1 x out
    Matrix grad_weight;
    Matrix grad_bias;
    Activation activation = Activation::kIdentity;
    /// Post-activation output of the last forward_train; the next layer's
    /// input.
    Matrix cached_output;
  };

  static void apply_activation(Matrix& m, Activation act);
  /// Scales `grad` by the activation's derivative, written in terms of the
  /// layer's output h: tanh' = 1 - h^2, ReLU' = [h > 0].
  static void apply_activation_grad(Matrix& grad, const Matrix& output, Activation act);

  std::size_t input_dim_ = 0;
  std::vector<Layer> layers_;
  /// Layer 0's input from the last forward_train.
  Matrix cached_input_;
};

}  // namespace xt::nn
