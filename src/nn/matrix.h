#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace xt {
class Counter;
class Histogram;
class MetricsRegistry;
}

namespace xt::nn {

/// Dense row-major float matrix — the only tensor type the DNN substrate
/// needs (observations, activations, weights are all 2-D here; biases are
/// 1 x N matrices).
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f);

  [[nodiscard]] static Matrix zeros(std::size_t rows, std::size_t cols);
  /// He-style scaled normal init: N(0, sqrt(2/fan_in)).
  [[nodiscard]] static Matrix he_normal(std::size_t rows, std::size_t cols, Rng& rng);
  /// Build a 1 x n row from a float vector (e.g. a single observation).
  [[nodiscard]] static Matrix from_row(const std::vector<float>& row);
  /// Build an m x n matrix from m stacked rows (all the same length).
  [[nodiscard]] static Matrix from_rows(const std::vector<std::vector<float>>& rows);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] float& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  [[nodiscard]] float at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }
  [[nodiscard]] float* row_ptr(std::size_t r) { return data_.data() + r * cols_; }
  [[nodiscard]] const float* row_ptr(std::size_t r) const { return data_.data() + r * cols_; }
  [[nodiscard]] std::vector<float>& data() { return data_; }
  [[nodiscard]] const std::vector<float>& data() const { return data_; }

  [[nodiscard]] std::vector<float> row(std::size_t r) const;
  /// Rows [r0, r1) as a matrix of their own.
  [[nodiscard]] Matrix slice_rows(std::size_t r0, std::size_t r1) const;

  void fill(float v);
  /// Gives the matrix the shape rows x cols, keeping its storage where it
  /// is large enough. Contents are unspecified afterwards.
  void resize(std::size_t rows, std::size_t cols);
  /// this += other (same shape).
  void add_inplace(const Matrix& other);
  /// this *= s.
  void scale_inplace(float s);

  /// Exact bitwise equality (shape and every float). Use only where exact
  /// reproducibility is the point (the determinism contract, wire
  /// round-trips); numeric comparisons belong with allclose().
  bool operator==(const Matrix&) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// True when a and b have the same shape and every element differs by at
/// most `atol + rtol * |b|` — the right comparison wherever two float
/// pipelines (blocked vs scalar kernels, serialized round-trips through
/// training) are expected to agree only up to rounding.
[[nodiscard]] bool allclose(const Matrix& a, const Matrix& b, float atol = 1e-5f,
                            float rtol = 1e-6f);

/// A product below this many flops runs on the calling thread: the pool's
/// claim and notify cost would exceed the work.
inline constexpr double kMinParallelFlops = 1 << 18;

/// C = A (m x k) * B (k x n).
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);
/// C = A^T (k x m -> m x k view) * B; used for weight gradients dW = X^T dY.
[[nodiscard]] Matrix matmul_at(const Matrix& a, const Matrix& b);
/// C = A * B^T; used for input gradients dX = dY W^T.
[[nodiscard]] Matrix matmul_bt(const Matrix& a, const Matrix& b);
/// C = A * B + bias broadcast over rows — the fused MLP layer forward.
[[nodiscard]] Matrix matmul_bias(const Matrix& a, const Matrix& b, const Matrix& bias_row);

// Row-range forms for callers that spread a batch's rows over threads
// themselves (nn::Mlp's training pieces). Each computes rows [r0, r1) of
// its product into the same rows of `c`, which the caller sized to the
// whole product, on the calling thread. A row's bits equal those the
// whole-matrix function gives it, at any thread count and under any row
// partition.

/// Rows of matmul_bias(a, b, bias_row).
void matmul_bias_rows(const Matrix& a, const Matrix& b, const Matrix& bias_row,
                      Matrix& c, std::size_t r0, std::size_t r1);
/// Rows of matmul_bt(a, b).
void matmul_bt_rows(const Matrix& a, const Matrix& b, Matrix& c, std::size_t r0,
                    std::size_t r1);
/// Adds rows of matmul_at(a, b) to c's rows, as c.add_inplace(matmul_at(a, b))
/// does: a weight gradient's rows accumulate dW = X^T dY.
void add_matmul_at_rows(const Matrix& a, const Matrix& b, Matrix& c, std::size_t r0,
                        std::size_t r1);

/// 1 x n column sums of X (bias gradient).
[[nodiscard]] Matrix col_sums(const Matrix& x);
/// Elementwise tanh, in place, on the calling thread: a vectorized rational
/// approximation (absolute error below 3e-7, |y| <= 1, NaN stays NaN) whose
/// bits for an element depend only on that element.
void tanh_inplace(Matrix& x);
/// The elementwise kernels over the n floats at x (a run of whole rows, say).
/// An element's bits depend only on its inputs, never on its position.
void tanh_inplace(float* x, std::size_t n);
/// x = max(x, 0), with NaN mapped to 0: ReLU.
void relu_inplace(float* x, std::size_t n);
/// grad *= 1 - h^2: tanh's derivative, written in terms of its output h.
void tanh_grad_inplace(float* grad, const float* h, std::size_t n);
/// grad = 0 wherever h <= 0: ReLU's derivative, in terms of its output h.
void relu_grad_inplace(float* grad, const float* h, std::size_t n);

/// The retained scalar matmuls — the exact pre-optimization loops, built in
/// their own translation unit with the project's stock flags. Only tests and
/// bench_kernels call them: they are the ground truth the blocked kernels are
/// property-tested against, and the "pre-PR scalar" baseline bench_kernels
/// reports GFLOP/s against.
namespace reference {
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);
[[nodiscard]] Matrix matmul_at(const Matrix& a, const Matrix& b);
[[nodiscard]] Matrix matmul_bt(const Matrix& a, const Matrix& b);
}  // namespace reference

/// Record per-kernel telemetry for matmuls run on the calling thread into
/// `registry`: `xt_gemm_ms{role,machine}` (histogram, wall time per call) and
/// `xt_gemm_flops_total{role,machine}` (counter, 2*m*n*k per call). Handles
/// are resolved once here, so the kernels pay two relaxed atomics per call.
/// Thread-local: worker threads bind their runtime's registry at loop
/// entry; pass nullptr to unbind (e.g. before the registry dies).
void bind_kernel_metrics(MetricsRegistry* registry, std::string_view role = {},
                         std::uint16_t machine = 0);

/// A thread's kernel telemetry binding, as a value that work handed to
/// another thread can carry along. Both handles are null when unbound.
struct KernelMetrics {
  Histogram* gemm_ms = nullptr;
  Counter* gemm_flops = nullptr;
};

/// The calling thread's binding.
[[nodiscard]] KernelMetrics kernel_metrics();

/// Binds `metrics` on the calling thread for the scope's lifetime, then
/// restores the thread's own binding. A pool task opens one with its
/// submitter's kernel_metrics(), so the task's matmuls are counted under the
/// submitter's labels on whichever thread runs it.
class KernelMetricsScope {
 public:
  explicit KernelMetricsScope(KernelMetrics metrics);
  ~KernelMetricsScope();

  KernelMetricsScope(const KernelMetricsScope&) = delete;
  KernelMetricsScope& operator=(const KernelMetricsScope&) = delete;

 private:
  KernelMetrics saved_;
};

}  // namespace xt::nn
