#include "nn/mlp.h"

#include <cassert>

#include "common/thread_pool.h"
#include "serial/binio.h"

namespace xt::nn {

Mlp::Mlp(std::size_t input_dim, std::vector<LayerSpec> specs, Rng& rng)
    : input_dim_(input_dim) {
  std::size_t in = input_dim;
  layers_.reserve(specs.size());
  for (const LayerSpec& spec : specs) {
    Layer layer;
    layer.weight = Matrix::he_normal(in, spec.width, rng);
    layer.bias = Matrix::zeros(1, spec.width);
    layer.grad_weight = Matrix::zeros(in, spec.width);
    layer.grad_bias = Matrix::zeros(1, spec.width);
    layer.activation = spec.activation;
    layers_.push_back(std::move(layer));
    in = spec.width;
  }
}

std::size_t Mlp::output_dim() const {
  return layers_.empty() ? input_dim_ : layers_.back().weight.cols();
}

namespace {

// Elementwise loops are chunk-invariant (each element is computed on its
// own), so pooling them never changes results, even against serial mode.
constexpr std::size_t kActivationGrain = 1 << 14;

}  // namespace

void Mlp::apply_activation(Matrix& m, Activation act) {
  float* v = m.data().data();
  switch (act) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      compute_parallel_for(m.size(), kActivationGrain,
                           [v](std::size_t b, std::size_t e) {
                             for (std::size_t i = b; i < e; ++i)
                               v[i] = v[i] > 0.0f ? v[i] : 0.0f;
                           });
      return;
    case Activation::kTanh:
      // Cheaper than a pool dispatch at these sizes.
      tanh_inplace(m);
      return;
  }
}

void Mlp::apply_activation_grad(Matrix& grad, const Matrix& output, Activation act) {
  switch (act) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      relu_grad_inplace(grad, output);
      return;
    case Activation::kTanh:
      tanh_grad_inplace(grad, output);
      return;
  }
}

Matrix Mlp::forward(const Matrix& x) const {
  Matrix h = x;
  for (const Layer& layer : layers_) {
    Matrix z = matmul_bias(h, layer.weight, layer.bias);
    apply_activation(z, layer.activation);
    h = std::move(z);
  }
  return h;
}

Matrix Mlp::forward_train(const Matrix& x) {
  cached_input_ = x;
  const Matrix* h = &cached_input_;
  for (Layer& layer : layers_) {
    Matrix z = matmul_bias(*h, layer.weight, layer.bias);
    apply_activation(z, layer.activation);
    layer.cached_output = std::move(z);
    h = &layer.cached_output;
  }
  return *h;
}

void Mlp::backward(const Matrix& grad_out) {
  assert(!cached_input_.empty() && "backward() requires forward_train()");
  Matrix grad = grad_out;
  for (std::size_t l = layers_.size(); l-- > 0;) {
    Layer& layer = layers_[l];
    const Matrix& input = l == 0 ? cached_input_ : layers_[l - 1].cached_output;
    apply_activation_grad(grad, layer.cached_output, layer.activation);
    layer.grad_weight.add_inplace(matmul_at(input, grad));
    layer.grad_bias.add_inplace(col_sums(grad));
    if (l > 0) grad = matmul_bt(grad, layer.weight);
  }
}

void Mlp::zero_grad() {
  for (Layer& layer : layers_) {
    layer.grad_weight.fill(0.0f);
    layer.grad_bias.fill(0.0f);
  }
}

std::vector<Matrix*> Mlp::parameters() {
  std::vector<Matrix*> out;
  out.reserve(layers_.size() * 2);
  for (Layer& layer : layers_) {
    out.push_back(&layer.weight);
    out.push_back(&layer.bias);
  }
  return out;
}

std::vector<Matrix*> Mlp::gradients() {
  std::vector<Matrix*> out;
  out.reserve(layers_.size() * 2);
  for (Layer& layer : layers_) {
    out.push_back(&layer.grad_weight);
    out.push_back(&layer.grad_bias);
  }
  return out;
}

std::size_t Mlp::parameter_count() const {
  std::size_t n = 0;
  for (const Layer& layer : layers_) {
    n += layer.weight.size() + layer.bias.size();
  }
  return n;
}

void Mlp::copy_parameters_from(const Mlp& other) {
  assert(layers_.size() == other.layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i].weight = other.layers_[i].weight;
    layers_[i].bias = other.layers_[i].bias;
  }
}

Bytes Mlp::serialize() const {
  BinWriter w;
  w.u64(input_dim_);
  w.u32(static_cast<std::uint32_t>(layers_.size()));
  for (const Layer& layer : layers_) {
    w.u64(layer.weight.rows());
    w.u64(layer.weight.cols());
    w.u8(static_cast<std::uint8_t>(layer.activation));
    w.f32_vec(layer.weight.data());
    w.f32_vec(layer.bias.data());
  }
  return w.take();
}

std::optional<Mlp> Mlp::deserialize(const Bytes& data) {
  BinReader r(data);
  auto input_dim = r.u64();
  auto n_layers = r.u32();
  if (!input_dim || !n_layers) return std::nullopt;
  Mlp out;
  out.input_dim_ = *input_dim;
  for (std::uint32_t i = 0; i < *n_layers; ++i) {
    auto rows = r.u64();
    auto cols = r.u64();
    auto act = r.u8();
    if (!rows || !cols || !act || *act > 2) return std::nullopt;
    auto weight = r.f32_vec();
    auto bias = r.f32_vec();
    if (!weight || !bias || weight->size() != *rows * *cols || bias->size() != *cols) {
      return std::nullopt;
    }
    Layer layer;
    layer.weight = Matrix(*rows, *cols);
    layer.weight.data() = std::move(*weight);
    layer.bias = Matrix(1, *cols);
    layer.bias.data() = std::move(*bias);
    layer.grad_weight = Matrix::zeros(*rows, *cols);
    layer.grad_bias = Matrix::zeros(1, *cols);
    layer.activation = static_cast<Activation>(*act);
    out.layers_.push_back(std::move(layer));
  }
  return out;
}

bool Mlp::load_weights(const Bytes& data) {
  auto loaded = deserialize(data);
  if (!loaded || loaded->layers_.size() != layers_.size() ||
      loaded->input_dim_ != input_dim_) {
    return false;
  }
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (loaded->layers_[i].weight.rows() != layers_[i].weight.rows() ||
        loaded->layers_[i].weight.cols() != layers_[i].weight.cols()) {
      return false;
    }
  }
  copy_parameters_from(*loaded);
  return true;
}

}  // namespace xt::nn
