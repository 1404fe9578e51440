#include "nn/mlp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>

#include "common/thread_pool.h"
#include "obs/profiler.h"

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

void train_tasks(std::size_t n, const std::function<void(std::size_t)>& task) {
  const KernelMetrics metrics = kernel_metrics();
  compute_tasks(n, [&](std::size_t i) {
    const KernelMetricsScope scope(metrics);
    ProfScope prof("train");
    task(i);
  });
}

namespace {

/// Rows per block of a GEMM's output: row chunks are whole blocks.
constexpr std::size_t kRowBlock = 8;

/// Runs body over rows [0, rows) in chunks of whole row blocks, one train
/// task each, as a GEMM partitions its output rows: about half the parallel
/// threshold's flops a chunk, at most one chunk per thread, and one chunk
/// below the threshold.
void for_row_chunks(std::size_t rows, double flops_per_row,
                    const std::function<void(std::size_t, std::size_t)>& body) {
  if (rows == 0) return;
  const std::size_t blocks = (rows + kRowBlock - 1) / kRowBlock;
  const double flops = flops_per_row * static_cast<double>(rows);
  std::size_t chunks = 1;
  if (flops >= kMinParallelFlops) {
    const auto threads = static_cast<std::size_t>(std::max(compute_threads(), 1));
    const auto by_flops = static_cast<std::size_t>(flops / (kMinParallelFlops / 2));
    chunks = std::min({by_flops, blocks, threads});
  }
  const std::size_t chunk_rows = (blocks + chunks - 1) / chunks * kRowBlock;
  train_tasks((rows + chunk_rows - 1) / chunk_rows, [&](std::size_t i) {
    body(i * chunk_rows, std::min((i + 1) * chunk_rows, rows));
  });
}

}  // namespace

void Mlp::apply_activation(float* x, std::size_t n, Activation act) {
  switch (act) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      relu_inplace(x, n);
      return;
    case Activation::kTanh:
      tanh_inplace(x, n);
      return;
  }
}

void Mlp::apply_activation_grad(float* grad, const float* h, std::size_t n,
                                Activation act) {
  switch (act) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      relu_grad_inplace(grad, h, n);
      return;
    case Activation::kTanh:
      tanh_grad_inplace(grad, h, n);
      return;
  }
}

Matrix Mlp::forward(const Matrix& x) const {
  Matrix h = x;
  for (const Layer& layer : layers_) {
    Matrix z = matmul_bias(h, layer.weight, layer.bias);
    apply_activation(z.data().data(), z.size(), layer.activation);
    h = std::move(z);
  }
  return h;
}

Matrix Mlp::forward_train(const Matrix& x) {
  assert(x.cols() == input_dim_);
  begin_train(x.rows());
  cached_input_ = x;
  double flops_per_row = 0.0;
  for (const Layer& layer : layers_) {
    flops_per_row += 2.0 * static_cast<double>(layer.weight.size());
  }
  for_row_chunks(x.rows(), flops_per_row,
                 [this](std::size_t r0, std::size_t r1) { forward_block(r0, r1); });
  return output();
}

void Mlp::backward(const Matrix& grad_out) {
  assert(!cached_input_.empty() && "backward() requires forward_train()");
  if (layers_.empty()) return;
  Matrix& grad = layers_.back().cached_grad;
  assert(grad_out.rows() == grad.rows() && grad_out.cols() == grad.cols());
  grad = grad_out;
  // Layer 0's input gradient is not computed, so its product is not counted.
  double bt_flops_per_row = 0.0;
  double dw_flops = 0.0;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const double size = static_cast<double>(layers_[l].weight.size());
    if (l > 0) bt_flops_per_row += 2.0 * size;
    dw_flops += 2.0 * size * static_cast<double>(grad.rows());
  }
  for_row_chunks(grad.rows(), bt_flops_per_row,
                 [this](std::size_t r0, std::size_t r1) { backward_block(r0, r1); });
  const auto threads = static_cast<std::size_t>(std::max(compute_threads(), 1));
  accumulate_weight_grads({this}, dw_flops >= kMinParallelFlops ? threads : 1);
}

void Mlp::begin_train(std::size_t rows) {
  cached_input_.resize(rows, input_dim_);
  for (Layer& layer : layers_) {
    layer.cached_output.resize(rows, layer.weight.cols());
    layer.cached_grad.resize(rows, layer.weight.cols());
  }
}

void Mlp::forward_block(std::size_t r0, std::size_t r1) {
  const Matrix* in = &cached_input_;
  for (Layer& layer : layers_) {
    Matrix& out = layer.cached_output;
    matmul_bias_rows(*in, layer.weight, layer.bias, out, r0, r1);
    apply_activation(out.row_ptr(r0), (r1 - r0) * out.cols(), layer.activation);
    in = &out;
  }
}

Matrix Mlp::forward_rows(std::size_t r0, std::size_t r1) {
  forward_block(r0, r1);
  return output().slice_rows(r0, r1);
}

const Matrix& Mlp::output() const {
  return layers_.empty() ? cached_input_ : layers_.back().cached_output;
}

void Mlp::backward_rows(const Matrix& grad, std::size_t r0) {
  assert(!layers_.empty());
  Matrix& out_grad = layers_.back().cached_grad;
  assert(grad.cols() == out_grad.cols() && r0 + grad.rows() <= out_grad.rows());
  std::copy(grad.data().begin(), grad.data().end(), out_grad.row_ptr(r0));
  backward_block(r0, r0 + grad.rows());
}

void Mlp::backward_block(std::size_t r0, std::size_t r1) {
  for (std::size_t l = layers_.size(); l-- > 0;) {
    Layer& layer = layers_[l];
    Matrix& grad = layer.cached_grad;
    apply_activation_grad(grad.row_ptr(r0), layer.cached_output.row_ptr(r0),
                          (r1 - r0) * grad.cols(), layer.activation);
    if (l > 0) matmul_bt_rows(grad, layer.weight, layers_[l - 1].cached_grad, r0, r1);
  }
}

void Mlp::add_weight_grad_rows(std::size_t l, std::size_t r0, std::size_t r1) {
  Layer& layer = layers_[l];
  const Matrix& input = l == 0 ? cached_input_ : layers_[l - 1].cached_output;
  add_matmul_at_rows(input, layer.cached_grad, layer.grad_weight, r0, r1);
  if (r0 == 0) layer.grad_bias.add_inplace(col_sums(layer.cached_grad));
}

void Mlp::accumulate_weight_grads(const std::vector<Mlp*>& nets, std::size_t parts) {
  // A layer's product is one piece, or, where it holds several parts' worth
  // of the flops, that many row ranges of whole blocks. Pieces run biggest
  // first, each claimed by whichever thread is free.
  struct Piece {
    Mlp* net;
    std::size_t layer, r0, r1;
    double flops;
  };
  const auto layer_flops = [](const Mlp& net, std::size_t l) {
    return 2.0 * static_cast<double>(net.cached_input_.rows()) *
           static_cast<double>(net.layers_[l].weight.size());
  };
  double total = 0.0;
  for (const Mlp* net : nets) {
    for (std::size_t l = 0; l < net->layers_.size(); ++l) total += layer_flops(*net, l);
  }
  const double per_part = total / static_cast<double>(parts);
  std::vector<Piece> pieces;
  for (Mlp* net : nets) {
    for (std::size_t l = 0; l < net->layers_.size(); ++l) {
      const double flops = layer_flops(*net, l);
      const std::size_t rows = net->layers_[l].weight.rows();
      if (rows == 0) continue;
      const std::size_t blocks = (rows + kRowBlock - 1) / kRowBlock;
      const double share = per_part > 0.0 ? flops / per_part : 0.0;
      const auto rounded = static_cast<std::size_t>(std::llround(share));
      const std::size_t splits = std::clamp<std::size_t>(rounded, 1, blocks);
      const std::size_t per_split = (blocks + splits - 1) / splits * kRowBlock;
      const double row_flops = flops / static_cast<double>(rows);
      for (std::size_t r0 = 0; r0 < rows; r0 += per_split) {
        const std::size_t r1 = std::min(rows, r0 + per_split);
        pieces.push_back({net, l, r0, r1, row_flops * static_cast<double>(r1 - r0)});
      }
    }
  }
  std::stable_sort(pieces.begin(), pieces.end(),
                   [](const Piece& a, const Piece& b) { return a.flops > b.flops; });
  train_tasks(pieces.size(), [&pieces](std::size_t i) {
    pieces[i].net->add_weight_grad_rows(pieces[i].layer, pieces[i].r0, pieces[i].r1);
  });
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

MlpShape Mlp::shape() const {
  MlpShape out{input_dim_, {}};
  for (const Layer& layer : layers_) {
    out.layers.push_back({layer.weight.rows(), layer.weight.cols(), layer.activation});
  }
  return out;
}

Bytes Mlp::serialize() const {
  MlpBlobWriter out(shape());
  for (const Layer& layer : layers_) {
    out.add(layer.weight.data());
    out.add(layer.bias.data());
  }
  return out.take();
}

std::optional<Mlp> Mlp::deserialize(const Bytes& data) {
  auto blob = parse_mlp_blob(data);
  if (!blob) return std::nullopt;
  Mlp out;
  out.input_dim_ = blob->shape.input_dim;
  for (std::size_t l = 0; l < blob->shape.layers.size(); ++l) {
    const LayerShape& shape = blob->shape.layers[l];
    Layer layer;
    layer.weight = Matrix(shape.rows, shape.cols);
    layer.weight.data() = std::move(blob->tensors[2 * l]);
    layer.bias = Matrix(1, shape.cols);
    layer.bias.data() = std::move(blob->tensors[2 * l + 1]);
    layer.grad_weight = Matrix::zeros(shape.rows, shape.cols);
    layer.grad_bias = Matrix::zeros(1, shape.cols);
    layer.activation = shape.activation;
    out.layers_.push_back(std::move(layer));
  }
  return out;
}

bool Mlp::load_weights(const Bytes& data) {
  auto blob = parse_mlp_blob(data);
  if (!blob || !blob->shape.same_sizes(shape())) return false;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].weight.data() = std::move(blob->tensors[2 * l]);
    layers_[l].bias.data() = std::move(blob->tensors[2 * l + 1]);
  }
  return true;
}

// ---------------------------------------------------------------------------
// The weight blob (MlpShape).
// ---------------------------------------------------------------------------

namespace {

/// rows, cols and activation: the bytes a layer's shape costs.
constexpr std::size_t kLayerShapeBytes = 8 + 8 + 1;
constexpr std::uint64_t kMaxTensorEntries = std::numeric_limits<std::uint32_t>::max();

void write_layer(BinWriter& out, const LayerShape& layer) {
  out.u64(layer.rows);
  out.u64(layer.cols);
  out.u8(static_cast<std::uint8_t>(layer.activation));
}

/// Reads a shape under MlpShape's rules and, where `tensors` is given, the
/// blob's tensors after each layer's shape. A hostile layer count is
/// refused before anything is reserved, since each layer costs
/// kLayerShapeBytes. Under these rules a layer's tensors hold under 2^35
/// bytes, so the blob size of a shape read from under 8 GiB cannot wrap.
std::optional<MlpShape> read_shape(BinReader& in,
                                   std::vector<std::vector<float>>* tensors) {
  const auto input_dim = in.u64();
  const auto count = in.u32();
  if (!input_dim || !count || *count > in.remaining() / kLayerShapeBytes) {
    return std::nullopt;
  }
  MlpShape shape{*input_dim, {}};
  shape.layers.reserve(*count);
  std::uint64_t fan_in = *input_dim;
  for (std::uint32_t l = 0; l < *count; ++l) {
    const auto rows = in.u64();
    const auto cols = in.u64();
    const auto activation = in.u8();
    if (!rows || !cols || !activation || *rows != fan_in ||
        *activation > static_cast<std::uint8_t>(Activation::kTanh) || *cols == 0 ||
        *cols > kMaxTensorEntries || *rows > kMaxTensorEntries / *cols) {
      return std::nullopt;
    }
    shape.layers.push_back({*rows, *cols, static_cast<Activation>(*activation)});
    fan_in = *cols;
    if (tensors == nullptr) continue;
    for (const std::uint64_t size : {*rows * *cols, *cols}) {
      auto values = in.f32_vec();
      if (!values || values->size() != size) return std::nullopt;
      tensors->push_back(std::move(*values));
    }
  }
  return shape;
}

}  // namespace

std::uint64_t MlpShape::tensor_size(std::size_t t) const {
  const LayerShape& layer = layers[t / 2];
  return t % 2 == 0 ? layer.rows * layer.cols : layer.cols;
}

std::uint64_t MlpShape::float_count() const {
  std::uint64_t total = 0;
  for (std::size_t t = 0; t < tensor_count(); ++t) total += tensor_size(t);
  return total;
}

std::uint64_t MlpShape::blob_bytes() const {
  // Each tensor carries a u64 length prefix.
  return structure_bytes() + tensor_count() * 8 + float_count() * sizeof(float);
}

std::uint64_t MlpShape::structure_bytes() const {
  return 8 + 4 + layers.size() * kLayerShapeBytes;
}

bool MlpShape::same_sizes(const MlpShape& other) const {
  return input_dim == other.input_dim && layers.size() == other.layers.size() &&
         std::equal(layers.begin(), layers.end(), other.layers.begin(),
                    [](const LayerShape& a, const LayerShape& b) {
                      return a.rows == b.rows && a.cols == b.cols;
                    });
}

void MlpShape::write(BinWriter& out) const {
  out.u64(input_dim);
  out.u32(static_cast<std::uint32_t>(layers.size()));
  for (const LayerShape& layer : layers) write_layer(out, layer);
}

std::optional<MlpShape> MlpShape::read(BinReader& in) {
  return read_shape(in, nullptr);
}

std::optional<MlpBlob> parse_mlp_blob(const Bytes& blob) {
  BinReader in(blob);
  MlpBlob out;
  auto shape = read_shape(in, &out.tensors);
  if (!shape || !in.exhausted()) return std::nullopt;
  out.shape = std::move(*shape);
  return out;
}

MlpBlobWriter::MlpBlobWriter(MlpShape shape) : shape_(std::move(shape)) {
  out_.reserve(static_cast<std::size_t>(shape_.blob_bytes()));
  out_.u64(shape_.input_dim);
  out_.u32(static_cast<std::uint32_t>(shape_.layers.size()));
}

void MlpBlobWriter::add(const std::vector<float>& tensor) {
  assert(next_ < shape_.tensor_count() && tensor.size() == shape_.tensor_size(next_));
  if (next_ % 2 == 0) write_layer(out_, shape_.layers[next_ / 2]);
  out_.f32_vec(tensor);
  ++next_;
}

Bytes MlpBlobWriter::take() {
  assert(next_ == shape_.tensor_count());
  return out_.take();
}

}  // namespace xt::nn
