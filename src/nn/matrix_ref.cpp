// The scalar reference kernels: the loops of the matmul family, the std::tanh
// activation and its gradient this repo shipped before the blocked/pooled
// compute layer, unchanged but for bounds on the output rows. Kept in a
// separate translation unit, built with the project's stock flags (no -march
// widening, so no FMA contraction), so that (a) `[compute] threads = 0`
// reproduces pre-pool runs bit-exactly on any host, and (b) bench_kernels'
// "scalar" baseline really is the pre-PR kernel, not the new code de-tuned.

#include <algorithm>
#include <cassert>
#include <cmath>

#include "nn/matrix.h"

namespace xt::nn::reference {

// Each whole-matrix kernel runs its row-range form over every output row.
// The row-range forms are the original loops with the output rows bounded,
// and zero their rows first, as a fresh output matrix starts at zero.

namespace {

void zero_rows(Matrix& c, std::size_t r0, std::size_t r1) {
  std::fill(c.row_ptr(r0), c.row_ptr(r0) + (r1 - r0) * c.cols(), 0.0f);
}

}  // namespace

void matmul_rows(const Matrix& a, const Matrix& b, Matrix& c, std::size_t r0,
                 std::size_t r1) {
  assert(a.cols() == b.rows() && c.rows() == a.rows() && c.cols() == b.cols());
  zero_rows(c, r0, r1);
  // i-k-j loop order: streams through b and c rows, cache friendly.
  for (std::size_t i = r0; i < r1; ++i) {
    float* ci = c.row_ptr(i);
    const float* ai = a.row_ptr(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const float aik = ai[k];
      if (aik == 0.0f) continue;
      const float* bk = b.row_ptr(k);
      for (std::size_t j = 0; j < b.cols(); ++j) ci[j] += aik * bk[j];
    }
  }
}

void matmul_at_rows(const Matrix& a, const Matrix& b, Matrix& c, std::size_t r0,
                    std::size_t r1) {
  assert(a.rows() == b.rows() && c.rows() == a.cols() && c.cols() == b.cols());
  zero_rows(c, r0, r1);
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const float* ak = a.row_ptr(k);
    const float* bk = b.row_ptr(k);
    for (std::size_t i = r0; i < r1; ++i) {
      const float aki = ak[i];
      if (aki == 0.0f) continue;
      float* ci = c.row_ptr(i);
      for (std::size_t j = 0; j < b.cols(); ++j) ci[j] += aki * bk[j];
    }
  }
}

void matmul_bt_rows(const Matrix& a, const Matrix& b, Matrix& c, std::size_t r0,
                    std::size_t r1) {
  assert(a.cols() == b.cols() && c.rows() == a.rows() && c.cols() == b.rows());
  for (std::size_t i = r0; i < r1; ++i) {
    const float* ai = a.row_ptr(i);
    float* ci = c.row_ptr(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const float* bj = b.row_ptr(j);
      float sum = 0.0f;
      for (std::size_t k = 0; k < a.cols(); ++k) sum += ai[k] * bj[k];
      ci[j] = sum;
    }
  }
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  reference::matmul_rows(a, b, c, 0, c.rows());
  return c;
}

Matrix matmul_at(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  reference::matmul_at_rows(a, b, c, 0, c.rows());
  return c;
}

Matrix matmul_bt(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  reference::matmul_bt_rows(a, b, c, 0, c.rows());
  return c;
}

void tanh_inplace(float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = std::tanh(x[i]);
}

void tanh_grad_inplace(float* grad, const float* h, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) grad[i] *= 1.0f - h[i] * h[i];
}

}  // namespace xt::nn::reference
