#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "nn/matrix.h"
#include "serial/binio.h"

namespace xt::nn {

enum class Activation : std::uint8_t { kIdentity = 0, kRelu = 1, kTanh = 2 };

struct LayerSpec {
  std::size_t width;
  Activation activation = Activation::kRelu;
};

/// One layer of a weight blob: a rows x cols weight, a cols-wide bias, and
/// the activation of the layer's output.
struct LayerShape {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  Activation activation = Activation::kIdentity;
};

/// The structure of an Mlp weight blob, the weights message body (paper
/// Fig. 2, blue arrows). This file owns the blob's layout; nothing else
/// reads or writes it (DESIGN.md §11):
///   u64 input_dim | u32 layer count | per layer: u64 rows | u64 cols
///   | u8 activation | f32_vec weight (rows x cols) | f32_vec bias (cols)
/// A weight frame's structure segment is the same fields without the
/// tensors. Every reader enforces the same rules: a known activation; the
/// first layer has input_dim rows and each later one its predecessor's cols;
/// a layer has at least one unit and each of its tensors fewer than 2^32
/// entries, so no size derived from a shape wraps; and a blob's tensors hold
/// exactly their shape's entries and end it.
struct MlpShape {
  std::uint64_t input_dim = 0;
  std::vector<LayerShape> layers;

  /// Tensors in blob order: layer l's weight is tensor 2l, its bias 2l + 1.
  [[nodiscard]] std::size_t tensor_count() const { return 2 * layers.size(); }
  [[nodiscard]] std::uint64_t tensor_size(std::size_t t) const;
  /// Entries of every tensor.
  [[nodiscard]] std::uint64_t float_count() const;
  /// Bytes of the blob.
  [[nodiscard]] std::uint64_t blob_bytes() const;
  /// Bytes of the structure segment that write() emits.
  [[nodiscard]] std::uint64_t structure_bytes() const;
  /// Same input and layer sizes; activations may differ.
  [[nodiscard]] bool same_sizes(const MlpShape& other) const;

  /// The structure segment: the blob's fields without its tensors.
  void write(BinWriter& out) const;
  [[nodiscard]] static std::optional<MlpShape> read(BinReader& in);
};

/// A weight blob, parsed: its shape and its tensors in blob order.
struct MlpBlob {
  MlpShape shape;
  std::vector<std::vector<float>> tensors;
};

/// nullopt unless `blob` keeps every rule of MlpShape.
[[nodiscard]] std::optional<MlpBlob> parse_mlp_blob(const Bytes& blob);

/// Writes the blob of a shape, one tensor at a time in blob order.
class MlpBlobWriter {
 public:
  explicit MlpBlobWriter(MlpShape shape);
  /// Appends the next tensor, tensor_size() entries.
  void add(const std::vector<float>& tensor);
  /// The blob, once every tensor is in.
  [[nodiscard]] Bytes take();

 private:
  const MlpShape shape_;
  BinWriter out_;
  std::size_t next_ = 0;
};

/// Multi-layer perceptron with explicit forward/backward passes. This is
/// the Model substrate for every DNN in the repo (Q networks, policy
/// networks, value networks). Training mode caches the input batch, each
/// layer's output and each layer's output gradient, so backward() can
/// accumulate parameter gradients.
///
/// A training step is made of three kinds of pieces (DESIGN.md §8):
/// forward_rows() and backward_rows() work on a range of the batch's rows,
/// and accumulate_weight_grads() on all of them at once. forward_train() and
/// backward() compose them; a caller that trains several nets per batch
/// (PPO) runs the pieces of all its nets as flat compute-pool phases. Row
/// pieces are row-local, so a row's bits do not depend on how the batch is
/// cut, and the weight gradients are full-batch products, so a step's bits
/// do not depend on how it was run.
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
  /// begin_train for x's rows, then forward_rows over the batch in row
  /// chunks on the compute pool.
  [[nodiscard]] Matrix forward_train(const Matrix& x);

  /// Backprop: `grad_out` is dLoss/dOutput for the last forward_train batch.
  /// Accumulates into the parameter gradients. dLoss/dInput is not computed:
  /// no caller trains what feeds the network. backward_rows over the batch
  /// in row chunks on the compute pool, then accumulate_weight_grads.
  void backward(const Matrix& grad_out);

  /// Starts a training step on a batch of `rows` rows: sizes the input and
  /// every layer's output and gradient caches to them. The caller fills a
  /// row of input() before forward_rows reads it.
  void begin_train(std::size_t rows);
  /// The training batch: the first layer's input.
  [[nodiscard]] Matrix& input() { return cached_input_; }
  /// Forward pass of batch rows [r0, r1) on the calling thread; returns
  /// those rows of the output.
  [[nodiscard]] Matrix forward_rows(std::size_t r0, std::size_t r1);
  /// Backward pass of batch rows [r0, r0 + grad.rows()) on the calling
  /// thread: `grad` is dLoss/dOutput of those rows, and each layer's
  /// gradient cache gets dLoss/dZ for them.
  void backward_rows(const Matrix& grad, std::size_t r0);
  /// The step's weight and bias gradients over all batch rows, added to
  /// every layer's parameter gradients, for each of `nets`, as one
  /// compute-pool job (train_tasks). A layer's product is one task, or, where
  /// it holds several of `parts` equal shares of the flops, that many tasks
  /// by output row; the biggest run first.
  static void accumulate_weight_grads(const std::vector<Mlp*>& nets, std::size_t parts);
  /// The last layer's output for the whole training batch, as far as
  /// forward_rows has computed it.
  [[nodiscard]] const Matrix& output() const;

  void zero_grad();

  /// Flat views over parameters/gradients for the optimizers.
  [[nodiscard]] std::vector<Matrix*> parameters();
  [[nodiscard]] std::vector<Matrix*> gradients();
  [[nodiscard]] std::size_t parameter_count() const;

  /// Copy parameters from another MLP with identical architecture (target
  /// network sync, weight broadcast application).
  void copy_parameters_from(const Mlp& other);

  /// The weight blob (MlpShape): the message body the learner broadcasts
  /// to explorers.
  [[nodiscard]] MlpShape shape() const;
  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<Mlp> deserialize(const Bytes& data);
  /// Load weights from a blob whose shape has this net's sizes.
  bool load_weights(const Bytes& data);

 private:
  struct Layer {
    Matrix weight;  ///< in x out
    Matrix bias;    ///< 1 x out
    Matrix grad_weight;
    Matrix grad_bias;
    Activation activation = Activation::kIdentity;
    /// Post-activation output of the training batch; the next layer's
    /// input.
    Matrix cached_output;
    /// dLoss/dZ (pre-activation) of the training batch, once backward_rows
    /// has run over its rows.
    Matrix cached_grad;
  };

  /// Applies `act` to the n floats at x.
  static void apply_activation(float* x, std::size_t n, Activation act);
  /// Scales the n floats at grad by the activation's derivative, written in
  /// terms of the layer's output h: tanh' = 1 - h^2, ReLU' = [h > 0].
  static void apply_activation_grad(float* grad, const float* h, std::size_t n,
                                    Activation act);
  void forward_block(std::size_t r0, std::size_t r1);
  /// Backward pass of rows [r0, r1) from the last layer's gradient cache.
  void backward_block(std::size_t r0, std::size_t r1);
  /// Rows [r0, r1) of layer l's weight gradient X^T dY over every batch
  /// row, plus its bias gradient with the piece that holds row 0.
  void add_weight_grad_rows(std::size_t l, std::size_t r0, std::size_t r1);

  std::size_t input_dim_ = 0;
  std::vector<Layer> layers_;
  /// Layer 0's input from the last forward_train.
  Matrix cached_input_;
};

/// compute_tasks whose tasks run under the calling thread's kernel metrics
/// binding and a "train" profile label, on whichever thread runs them: the
/// pool job of a training phase.
void train_tasks(std::size_t n, const std::function<void(std::size_t)>& task);

}  // namespace xt::nn
