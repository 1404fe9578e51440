// The scalar reference kernels: the loops of the matmul family this repo
// shipped before the blocked/pooled compute layer, unchanged. Kept in a
// separate translation unit, built with the project's stock flags (no -march
// widening, so no FMA contraction), so that they are (a) an independent
// ground truth the property tests hold the blocked kernels to, and (b)
// bench_kernels' "scalar" baseline: the pre-PR kernel, not the new code
// de-tuned.

#include <cassert>

#include "nn/matrix.h"

namespace xt::nn::reference {

Matrix matmul(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  // i-k-j loop order: streams through b and c rows, cache friendly.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    float* ci = c.row_ptr(i);
    const float* ai = a.row_ptr(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const float aik = ai[k];
      if (aik == 0.0f) continue;
      const float* bk = b.row_ptr(k);
      for (std::size_t j = 0; j < b.cols(); ++j) ci[j] += aik * bk[j];
    }
  }
  return c;
}

Matrix matmul_at(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  Matrix c(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const float* ak = a.row_ptr(k);
    const float* bk = b.row_ptr(k);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const float aki = ak[i];
      if (aki == 0.0f) continue;
      float* ci = c.row_ptr(i);
      for (std::size_t j = 0; j < b.cols(); ++j) ci[j] += aki * bk[j];
    }
  }
  return c;
}

Matrix matmul_bt(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const float* ai = a.row_ptr(i);
    float* ci = c.row_ptr(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const float* bj = b.row_ptr(j);
      float sum = 0.0f;
      for (std::size_t k = 0; k < a.cols(); ++k) sum += ai[k] * bj[k];
      ci[j] = sum;
    }
  }
  return c;
}

}  // namespace xt::nn::reference
