// Blocked, register-tiled compute kernels for the NN hot path. The three
// matmul variants (plus the fused bias forward) are written as fixed-size
// micro-kernels — kMr x kNr output tiles whose accumulators live in local
// arrays the compiler keeps in vector registers — and are partitioned over
// output rows onto the shared compute pool (common/thread_pool.h). The tanh
// activation is a vectorized rational approximation run on the caller.
//
// Determinism contract (see DESIGN.md "Compute kernels"):
//  * `[compute] threads = 0` dispatches to the scalar kernels in
//    matrix_ref.cpp, bit-identical to the pre-pool implementation.
//  * In blocked mode every output element is accumulated by exactly one
//    chunk, in a fixed order (ascending k; fixed pairwise combine for the
//    dot-product kernel), so results do not depend on thread count or
//    chunk boundaries. The tanh kernel computes every element, the tail
//    included, with the same vector operations.

#include "nn/matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/clock.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace xt::nn {

Matrix::Matrix(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::zeros(std::size_t rows, std::size_t cols) {
  return Matrix(rows, cols, 0.0f);
}

Matrix Matrix::he_normal(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  const double stddev = std::sqrt(2.0 / static_cast<double>(rows));
  for (auto& v : m.data_) v = static_cast<float>(rng.normal(0.0, stddev));
  return m;
}

Matrix Matrix::from_row(const std::vector<float>& row) {
  Matrix m(1, row.size());
  m.data_ = row;
  return m;
}

Matrix Matrix::from_rows(const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) return Matrix{};
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    assert(rows[r].size() == m.cols_);
    std::copy(rows[r].begin(), rows[r].end(), m.row_ptr(r));
  }
  return m;
}

std::vector<float> Matrix::row(std::size_t r) const {
  return {row_ptr(r), row_ptr(r) + cols_};
}

void Matrix::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

namespace {

// Register tile of the matmul micro-kernels: kMr output rows by kNr output
// columns of accumulators the compiler keeps in vector registers (8 zmm
// with AVX-512, the full ymm file with AVX2; see DESIGN.md).
constexpr std::size_t kMr = 8;
constexpr std::size_t kNr = 16;
// Dot-product unroll width of the B-transposed kernel.
constexpr std::size_t kKu = 8;
// A product below this many flops is not worth farming out.
constexpr double kMinParallelFlops = 1 << 18;
// Elementwise loops shorter than this run inline.
constexpr std::size_t kElementwiseGrain = 1 << 14;

// The micro-kernels express their accumulator tiles directly as GCC/Clang
// vector extensions: GCC's autovectorizer turns the equivalent scalar
// formulations into permute-heavy code (it vectorizes across reduction
// iterations), an order of magnitude off. This is not ISA-specific —
// vector_size lowers to plain scalar ops on targets without SIMD — and
// every use keeps a portable scalar fallback for other compilers. Each
// accumulator lane receives exactly the products the scalar version gives
// it, in the same k-ascending order, so the determinism contract
// (thread-count invariance) is unchanged.
#if defined(__GNUC__) || defined(__clang__)
#define XT_VEC_EXT 1
typedef float Vf8 __attribute__((vector_size(kKu * sizeof(float))));
typedef float Vf16 __attribute__((vector_size(kNr * sizeof(float))));

inline Vf8 load8(const float* p) {
  Vf8 v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline Vf16 load16(const float* p) {
  Vf16 v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline void store16(float* p, Vf16 v) { __builtin_memcpy(p, &v, sizeof(v)); }

// The vec-ext tile bodies name their kMr accumulators individually.
static_assert(kMr == 8, "vec-ext micro-kernels are written for kMr == 8");

/// Combine the kKu lanes of a dot product in a fixed pairwise order, so
/// the value never depends on how rows were chunked.
inline float combine(Vf8 s) {
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}
#else
inline float combine(const float* s) {
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}
#endif

/// Partition `rows` output rows over the compute pool when the product is
/// big enough, inline otherwise. Chunks are sized so each holds roughly
/// half the parallel threshold of work.
template <typename Body>
void run_rows(std::size_t rows, double flops, const Body& body) {
  if (rows == 0) return;
  std::shared_ptr<ThreadPool> pool;
  if (flops >= kMinParallelFlops) pool = compute_pool();
  if (!pool) {
    body(0, rows);
    return;
  }
  const double flops_per_row = flops / static_cast<double>(rows);
  auto grain = static_cast<std::size_t>(kMinParallelFlops / 2 / flops_per_row);
  // The scope also attaches the pool's "xt-compute" workers to the profiler
  // the first time they execute a chunk.
  pool->parallel_for(rows, std::max(grain, kMr),
                     [&body](std::size_t b, std::size_t e) {
                       ProfScope prof("gemm");
                       body(b, e);
                     });
}

/// Rows [r0, r1) of C = A * B (+ optional bias row broadcast).
void gemm_rows(const Matrix& a, const Matrix& b, const float* bias, Matrix& c,
               std::size_t r0, std::size_t r1) {
  const std::size_t K = a.cols();
  const std::size_t N = b.cols();
  std::size_t i = r0;
  for (; i + kMr <= r1; i += kMr) {
    const float* arow[kMr];
    for (std::size_t ii = 0; ii < kMr; ++ii) arow[ii] = a.row_ptr(i + ii);
    std::size_t j = 0;
    for (; j + kNr <= N; j += kNr) {
#if XT_VEC_EXT
      const Vf16 init = bias ? load16(bias + j) : Vf16{};
      Vf16 c0 = init, c1 = init, c2 = init, c3 = init;
      Vf16 c4 = init, c5 = init, c6 = init, c7 = init;
      for (std::size_t k = 0; k < K; ++k) {
        const Vf16 bk = load16(b.row_ptr(k) + j);
        c0 += arow[0][k] * bk;
        c1 += arow[1][k] * bk;
        c2 += arow[2][k] * bk;
        c3 += arow[3][k] * bk;
        c4 += arow[4][k] * bk;
        c5 += arow[5][k] * bk;
        c6 += arow[6][k] * bk;
        c7 += arow[7][k] * bk;
      }
      const Vf16 cv[kMr] = {c0, c1, c2, c3, c4, c5, c6, c7};
      for (std::size_t ii = 0; ii < kMr; ++ii)
        store16(c.row_ptr(i + ii) + j, cv[ii]);
#else
      float acc[kMr][kNr];
      for (std::size_t ii = 0; ii < kMr; ++ii)
        for (std::size_t jj = 0; jj < kNr; ++jj)
          acc[ii][jj] = bias ? bias[j + jj] : 0.0f;
      for (std::size_t k = 0; k < K; ++k) {
        const float* bk = b.row_ptr(k) + j;
        for (std::size_t ii = 0; ii < kMr; ++ii) {
          const float v = arow[ii][k];
          for (std::size_t jj = 0; jj < kNr; ++jj) acc[ii][jj] += v * bk[jj];
        }
      }
      for (std::size_t ii = 0; ii < kMr; ++ii) {
        float* ci = c.row_ptr(i + ii) + j;
        for (std::size_t jj = 0; jj < kNr; ++jj) ci[jj] = acc[ii][jj];
      }
#endif
    }
    if (j < N) {
      const std::size_t nr = N - j;
      float acc[kMr][kNr] = {};
      if (bias) {
        for (std::size_t ii = 0; ii < kMr; ++ii)
          for (std::size_t jj = 0; jj < nr; ++jj) acc[ii][jj] = bias[j + jj];
      }
      for (std::size_t k = 0; k < K; ++k) {
        const float* bk = b.row_ptr(k) + j;
        for (std::size_t ii = 0; ii < kMr; ++ii) {
          const float v = arow[ii][k];
          for (std::size_t jj = 0; jj < nr; ++jj) acc[ii][jj] += v * bk[jj];
        }
      }
      for (std::size_t ii = 0; ii < kMr; ++ii) {
        float* ci = c.row_ptr(i + ii) + j;
        for (std::size_t jj = 0; jj < nr; ++jj) ci[jj] = acc[ii][jj];
      }
    }
  }
  for (; i < r1; ++i) {  // leftover rows, one at a time
    const float* ai = a.row_ptr(i);
    std::size_t j = 0;
#if XT_VEC_EXT
    for (; j + kNr <= N; j += kNr) {
      Vf16 acc = bias ? load16(bias + j) : Vf16{};
      for (std::size_t k = 0; k < K; ++k) acc += ai[k] * load16(b.row_ptr(k) + j);
      store16(c.row_ptr(i) + j, acc);
    }
#endif
    for (; j < N; j += kNr) {
      const std::size_t nr = std::min(kNr, N - j);
      float acc[kNr] = {};
      if (bias) {
        for (std::size_t jj = 0; jj < nr; ++jj) acc[jj] = bias[j + jj];
      }
      for (std::size_t k = 0; k < K; ++k) {
        const float v = ai[k];
        const float* bk = b.row_ptr(k) + j;
        for (std::size_t jj = 0; jj < nr; ++jj) acc[jj] += v * bk[jj];
      }
      float* ci = c.row_ptr(i) + j;
      for (std::size_t jj = 0; jj < nr; ++jj) ci[jj] = acc[jj];
    }
  }
}

/// Rows [r0, r1) of C = A^T * B; C rows index A columns, reduction runs
/// over A/B rows. A[r][i..i+kMr) is contiguous, so the tile loads stream.
void gemm_at_rows(const Matrix& a, const Matrix& b, Matrix& c, std::size_t r0,
                  std::size_t r1) {
  const std::size_t R = a.rows();
  const std::size_t N = b.cols();
  std::size_t i = r0;
  for (; i + kMr <= r1; i += kMr) {
    std::size_t j = 0;
    for (; j + kNr <= N; j += kNr) {
#if XT_VEC_EXT
      Vf16 c0{}, c1{}, c2{}, c3{}, c4{}, c5{}, c6{}, c7{};
      for (std::size_t r = 0; r < R; ++r) {
        const float* ar = a.row_ptr(r) + i;
        const Vf16 br = load16(b.row_ptr(r) + j);
        c0 += ar[0] * br;
        c1 += ar[1] * br;
        c2 += ar[2] * br;
        c3 += ar[3] * br;
        c4 += ar[4] * br;
        c5 += ar[5] * br;
        c6 += ar[6] * br;
        c7 += ar[7] * br;
      }
      const Vf16 cv[kMr] = {c0, c1, c2, c3, c4, c5, c6, c7};
      for (std::size_t ii = 0; ii < kMr; ++ii)
        store16(c.row_ptr(i + ii) + j, cv[ii]);
#else
      float acc[kMr][kNr] = {};
      for (std::size_t r = 0; r < R; ++r) {
        const float* ar = a.row_ptr(r) + i;
        const float* br = b.row_ptr(r) + j;
        for (std::size_t ii = 0; ii < kMr; ++ii) {
          const float v = ar[ii];
          for (std::size_t jj = 0; jj < kNr; ++jj) acc[ii][jj] += v * br[jj];
        }
      }
      for (std::size_t ii = 0; ii < kMr; ++ii) {
        float* ci = c.row_ptr(i + ii) + j;
        for (std::size_t jj = 0; jj < kNr; ++jj) ci[jj] = acc[ii][jj];
      }
#endif
    }
    if (j < N) {
      const std::size_t nr = N - j;
      float acc[kMr][kNr] = {};
      for (std::size_t r = 0; r < R; ++r) {
        const float* ar = a.row_ptr(r) + i;
        const float* br = b.row_ptr(r) + j;
        for (std::size_t ii = 0; ii < kMr; ++ii)
          for (std::size_t jj = 0; jj < nr; ++jj) acc[ii][jj] += ar[ii] * br[jj];
      }
      for (std::size_t ii = 0; ii < kMr; ++ii) {
        float* ci = c.row_ptr(i + ii) + j;
        for (std::size_t jj = 0; jj < nr; ++jj) ci[jj] = acc[ii][jj];
      }
    }
  }
  for (; i < r1; ++i) {
    std::size_t j = 0;
#if XT_VEC_EXT
    for (; j + kNr <= N; j += kNr) {
      Vf16 acc{};
      for (std::size_t r = 0; r < R; ++r)
        acc += a.row_ptr(r)[i] * load16(b.row_ptr(r) + j);
      store16(c.row_ptr(i) + j, acc);
    }
#endif
    for (; j < N; j += kNr) {
      const std::size_t nr = std::min(kNr, N - j);
      float acc[kNr] = {};
      for (std::size_t r = 0; r < R; ++r) {
        const float v = a.row_ptr(r)[i];
        const float* br = b.row_ptr(r) + j;
        for (std::size_t jj = 0; jj < nr; ++jj) acc[jj] += v * br[jj];
      }
      float* ci = c.row_ptr(i) + j;
      for (std::size_t jj = 0; jj < nr; ++jj) ci[jj] = acc[jj];
    }
  }
}

/// Rows [r0, r1) of C = A * B^T: dot products of A rows against B rows,
/// kKu-wide partial sums for ILP, four B rows per pass.
void gemm_bt_rows(const Matrix& a, const Matrix& b, Matrix& c, std::size_t r0,
                  std::size_t r1) {
  const std::size_t K = a.cols();
  const std::size_t M = b.rows();
  for (std::size_t i = r0; i < r1; ++i) {
    const float* ai = a.row_ptr(i);
    float* ci = c.row_ptr(i);
    std::size_t j = 0;
    for (; j + 4 <= M; j += 4) {
      const float* b0 = b.row_ptr(j);
      const float* b1 = b.row_ptr(j + 1);
      const float* b2 = b.row_ptr(j + 2);
      const float* b3 = b.row_ptr(j + 3);
      std::size_t k = 0;
      float sum[4];
#if XT_VEC_EXT
      Vf8 s0{}, s1{}, s2{}, s3{};
      for (; k + kKu <= K; k += kKu) {
        const Vf8 av = load8(ai + k);
        s0 += av * load8(b0 + k);
        s1 += av * load8(b1 + k);
        s2 += av * load8(b2 + k);
        s3 += av * load8(b3 + k);
      }
      sum[0] = combine(s0);
      sum[1] = combine(s1);
      sum[2] = combine(s2);
      sum[3] = combine(s3);
#else
      float s[4][kKu] = {};
      for (; k + kKu <= K; k += kKu) {
        for (std::size_t u = 0; u < kKu; ++u) {
          const float av = ai[k + u];
          s[0][u] += av * b0[k + u];
          s[1][u] += av * b1[k + u];
          s[2][u] += av * b2[k + u];
          s[3][u] += av * b3[k + u];
        }
      }
      for (std::size_t jj = 0; jj < 4; ++jj) sum[jj] = combine(s[jj]);
#endif
      const float* brow[4] = {b0, b1, b2, b3};
      for (std::size_t jj = 0; jj < 4; ++jj) {
        float v = sum[jj];
        for (std::size_t kk = k; kk < K; ++kk) v += ai[kk] * brow[jj][kk];
        ci[j + jj] = v;
      }
    }
    for (; j < M; ++j) {
      const float* bj = b.row_ptr(j);
      std::size_t k = 0;
      float sum;
#if XT_VEC_EXT
      Vf8 s{};
      for (; k + kKu <= K; k += kKu) s += load8(ai + k) * load8(bj + k);
      sum = combine(s);
#else
      float s[kKu] = {};
      for (; k + kKu <= K; k += kKu) {
        for (std::size_t u = 0; u < kKu; ++u) s[u] += ai[k + u] * bj[k + u];
      }
      sum = combine(s);
#endif
      for (; k < K; ++k) sum += ai[k] * bj[k];
      ci[j] = sum;
    }
  }
}

// ---- tanh kernel ----------------------------------------------------------

// Inputs are clamped to the range the rational below is fitted on; past it
// the rational leaves [-1, 1].
constexpr float kTanhClamp = 7.90531110763549805f;

/// tanh as a rational minimax approximation (Eigen's float coefficients):
/// an odd degree-13 numerator over an even degree-6 denominator. Written
/// once for a float and for a Vf16, so every lane runs the same operations.
template <typename V>
V tanh_rational(V x) {
  const V hi = V{} + kTanhClamp;
  const V lo = V{} - kTanhClamp;
  // Both comparisons are false for NaN, which passes through unclamped.
  x = x > hi ? hi : x;
  x = x < lo ? lo : x;
  const V x2 = x * x;
  V p = x2 * -2.76076847742355e-16f + 2.00018790482477e-13f;
  p = x2 * p - 8.60467152213735e-11f;
  p = x2 * p + 5.12229709037114e-08f;
  p = x2 * p + 1.48572235717979e-05f;
  p = x2 * p + 6.37261928875436e-04f;
  p = x2 * p + 4.89352455891786e-03f;
  V q = x2 * 1.19825839466702e-06f + 1.18534705686654e-04f;
  q = x2 * q + 2.26843463243900e-03f;
  q = x2 * q + 4.89352518554385e-03f;
  return x * p / q;
}

// ---- per-kernel telemetry -------------------------------------------------

struct KernelSink {
  Histogram* gemm_ms = nullptr;
  Counter* gemm_flops = nullptr;
};

thread_local KernelSink t_kernel_sink;

/// Times one matmul call into the thread's bound sink; free when unbound.
class KernelScope {
 public:
  explicit KernelScope(double flops)
      : active_(t_kernel_sink.gemm_ms != nullptr), flops_(flops) {}
  ~KernelScope() {
    if (!active_) return;
    t_kernel_sink.gemm_ms->observe(watch_.elapsed_ms());
    t_kernel_sink.gemm_flops->inc(static_cast<std::uint64_t>(flops_));
  }

 private:
  bool active_;
  double flops_;
  Stopwatch watch_;
};

}  // namespace

void bind_kernel_metrics(MetricsRegistry* registry, const std::string& labels) {
  if (registry == nullptr) {
    t_kernel_sink = KernelSink{};
    return;
  }
  const std::string suffix = labels.empty() ? "" : "{" + labels + "}";
  t_kernel_sink.gemm_ms = &registry->histogram("xt_gemm_ms" + suffix);
  t_kernel_sink.gemm_flops = &registry->counter("xt_gemm_flops_total" + suffix);
}

void Matrix::add_inplace(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  float* dst = data_.data();
  const float* src = other.data_.data();
  compute_parallel_for(data_.size(), kElementwiseGrain,
                       [dst, src](std::size_t b, std::size_t e) {
                         for (std::size_t i = b; i < e; ++i) dst[i] += src[i];
                       });
}

void Matrix::scale_inplace(float s) {
  float* dst = data_.data();
  compute_parallel_for(data_.size(), kElementwiseGrain,
                       [dst, s](std::size_t b, std::size_t e) {
                         for (std::size_t i = b; i < e; ++i) dst[i] *= s;
                       });
}

bool allclose(const Matrix& a, const Matrix& b, float atol, float rtol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float x = a.data()[i];
    const float y = b.data()[i];
    if (std::isnan(x) || std::isnan(y)) return false;
    if (std::abs(x - y) > atol + rtol * std::abs(y)) return false;
  }
  return true;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  const double flops = 2.0 * static_cast<double>(a.rows()) *
                       static_cast<double>(b.cols()) * static_cast<double>(a.cols());
  KernelScope scope(flops);
  if (compute_threads() == 0) return reference::matmul(a, b);
  Matrix c(a.rows(), b.cols());
  run_rows(a.rows(), flops, [&](std::size_t r0, std::size_t r1) {
    gemm_rows(a, b, nullptr, c, r0, r1);
  });
  return c;
}

Matrix matmul_bias(const Matrix& a, const Matrix& b, const Matrix& bias_row) {
  assert(a.cols() == b.rows());
  assert(bias_row.rows() == 1 && bias_row.cols() == b.cols());
  const double flops = 2.0 * static_cast<double>(a.rows()) *
                       static_cast<double>(b.cols()) * static_cast<double>(a.cols());
  KernelScope scope(flops);
  if (compute_threads() == 0) {
    Matrix c = reference::matmul(a, b);
    add_row_inplace(c, bias_row);
    return c;
  }
  Matrix c(a.rows(), b.cols());
  const float* bias = bias_row.row_ptr(0);
  run_rows(a.rows(), flops, [&](std::size_t r0, std::size_t r1) {
    gemm_rows(a, b, bias, c, r0, r1);
  });
  return c;
}

Matrix matmul_at(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  const double flops = 2.0 * static_cast<double>(a.cols()) *
                       static_cast<double>(b.cols()) * static_cast<double>(a.rows());
  KernelScope scope(flops);
  if (compute_threads() == 0) return reference::matmul_at(a, b);
  Matrix c(a.cols(), b.cols());
  run_rows(a.cols(), flops, [&](std::size_t r0, std::size_t r1) {
    gemm_at_rows(a, b, c, r0, r1);
  });
  return c;
}

Matrix matmul_bt(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  const double flops = 2.0 * static_cast<double>(a.rows()) *
                       static_cast<double>(b.rows()) * static_cast<double>(a.cols());
  KernelScope scope(flops);
  if (compute_threads() == 0) return reference::matmul_bt(a, b);
  Matrix c(a.rows(), b.rows());
  run_rows(a.rows(), flops, [&](std::size_t r0, std::size_t r1) {
    gemm_bt_rows(a, b, c, r0, r1);
  });
  return c;
}

void add_row_inplace(Matrix& x, const Matrix& bias_row) {
  assert(bias_row.rows() == 1 && bias_row.cols() == x.cols());
  const std::size_t cols = x.cols();
  const float* bias = bias_row.row_ptr(0);
  const std::size_t grain = std::max<std::size_t>(1, kElementwiseGrain / std::max<std::size_t>(1, cols));
  compute_parallel_for(x.rows(), grain, [&x, bias, cols](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      float* xi = x.row_ptr(i);
      for (std::size_t j = 0; j < cols; ++j) xi[j] += bias[j];
    }
  });
}

Matrix col_sums(const Matrix& x) {
  Matrix out(1, x.cols());
  const std::size_t rows = x.rows();
  // Partitioned over columns: each column's sum accumulates rows in
  // ascending order regardless of chunking, so results stay deterministic.
  const std::size_t grain = std::max<std::size_t>(1, kElementwiseGrain / std::max<std::size_t>(1, rows));
  float* o = out.row_ptr(0);
  compute_parallel_for(x.cols(), grain, [&x, o, rows](std::size_t b, std::size_t e) {
    for (std::size_t i = 0; i < rows; ++i) {
      const float* xi = x.row_ptr(i);
      for (std::size_t j = b; j < e; ++j) o[j] += xi[j];
    }
  });
  return out;
}

void tanh_inplace(Matrix& x) {
  if (compute_threads() == 0) {
    reference::tanh_inplace(x);
    return;
  }
  float* v = x.data().data();
  const std::size_t n = x.size();
#if XT_VEC_EXT
  std::size_t i = 0;
  for (; i + kNr <= n; i += kNr) store16(v + i, tanh_rational(load16(v + i)));
  if (i < n) {
    // The tail is padded into one more vector: a scalar tail may round
    // differently, and an element's bits would then depend on its position.
    const std::size_t tail_bytes = (n - i) * sizeof(float);
    Vf16 tail{};
    __builtin_memcpy(&tail, v + i, tail_bytes);
    tail = tanh_rational(tail);
    __builtin_memcpy(v + i, &tail, tail_bytes);
  }
#else
  for (std::size_t i = 0; i < n; ++i) v[i] = tanh_rational(v[i]);
#endif
}

}  // namespace xt::nn
