// Blocked, register-tiled compute kernels for the NN hot path. All four
// matmul variants (matmul, matmul_bias, matmul_at, matmul_bt) run one
// micro-kernel: kMr x kNr output tiles, or kMr x 2 kNr where the ISA holds
// them, whose accumulators are vector values the compiler keeps in
// registers. The kernel reads A through a row and a column stride, so A^T
// needs no copy, and B as K x kNr column panels: slices of B itself, or
// zero-padded copies for a transposed B and for a last partial panel.
// Output row blocks are partitioned onto the shared compute pool
// (common/thread_pool.h); the row-range forms compute some rows on the
// calling thread. The elementwise kernels (tanh, the activations and their
// gradients, sums, the fused clip+Adam step) run inline on the caller in
// the same vector type.
//
// Determinism contract (see DESIGN.md "Compute kernels"): every output
// element is accumulated by exactly one chunk, in ascending k, so results do
// not depend on thread count or chunk boundaries; `[compute] threads` 0 and
// 1 both run everything on the caller. Elementwise kernels pad a tail into
// one more vector, so an element's bits depend only on its inputs, never on
// its position.

#include "nn/matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/clock.h"
#include "common/thread_pool.h"
#include "nn/optimizer.h"
#include "obs/catalog.h"
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

Matrix Matrix::slice_rows(std::size_t r0, std::size_t r1) const {
  assert(r0 <= r1 && r1 <= rows_);
  Matrix m(r1 - r0, cols_);
  std::copy(row_ptr(r0), row_ptr(r1), m.data_.begin());
  return m;
}

void Matrix::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

namespace {

// Register tile of the matmul micro-kernel: kMr output rows by kNr output
// columns of accumulators the compiler keeps in vector registers (8 zmm
// with AVX-512, the full ymm file with AVX2; see DESIGN.md).
constexpr std::size_t kMr = 8;
constexpr std::size_t kNr = 16;
// AVX-512's 32 vector registers hold a kMr x 2 kNr tile: 16 accumulators
// take two panel loads and 8 broadcasts for 16 FMAs a k step, where one
// panel takes 9 loads for 8. AVX2's 16 registers do not hold it.
#ifdef __AVX512F__
constexpr bool kPanelPairs = true;
#else
constexpr bool kPanelPairs = false;
#endif

// The kernels express their vectors directly as GCC/Clang vector
// extensions, which the build's compilers (GCC and Clang) both provide:
// GCC's autovectorizer turns the equivalent scalar formulations into
// permute-heavy code (it vectorizes across reduction iterations), an order
// of magnitude off. This is not ISA-specific: vector_size lowers to plain
// scalar ops on targets without SIMD.
typedef float Vf16 __attribute__((vector_size(kNr * sizeof(float))));

inline Vf16 load16(const float* p) {
  Vf16 v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

/// The w <= kNr floats at p, zero-padded to a full vector.
inline Vf16 load(const float* p, std::size_t w) {
  if (w == kNr) return load16(p);
  Vf16 v{};
  __builtin_memcpy(&v, p, w * sizeof(float));
  return v;
}

/// Writes the first w <= kNr lanes of v to p. A full vector takes the
/// constant-size copy, which compiles to one vector store.
inline void store(float* p, Vf16 v, std::size_t w) {
  if (w == kNr) {
    __builtin_memcpy(p, &v, sizeof(v));
  } else {
    __builtin_memcpy(p, &v, w * sizeof(float));
  }
}

/// Calls body(i, w) for i = 0, kNr, 2 kNr, ... covering [0, n), with w the
/// lanes in use (kNr but for a last, shorter vector). A tail is padded into
/// one more vector rather than finished by a scalar loop: scalar code may
/// round differently, and an element's bits would then depend on its
/// position.
template <typename Body>
void for_lanes(std::size_t n, const Body& body) {
  std::size_t i = 0;
  for (; i + kNr <= n; i += kNr) body(i, kNr);
  if (i < n) body(i, n - i);
}

/// Per-lane square root: one vsqrtps where the host has it, because the
/// file is built with -fno-math-errno (nothing in the project reads errno).
inline Vf16 sqrt16(Vf16 x) {
  for (std::size_t l = 0; l < kNr; ++l) x[l] = __builtin_sqrtf(x[l]);
  return x;
}

/// The lanes' sum, combined in a fixed pairwise order.
inline float lane_sum(Vf16 s) {
  for (std::size_t half = kNr / 2; half > 0; half /= 2) {
    for (std::size_t l = 0; l < half; ++l) s[l] += s[l + half];
  }
  return s[0];
}

// ---- GEMM -----------------------------------------------------------------

/// A strided operand: element (r, c) is p[r * rs + c * cs].
struct View {
  const float* p;
  std::size_t rs, cs;
};

/// One product C (M x N) = A (M x K) * B (K x N) (+ a bias row) as the
/// micro-kernel reads it. Panel q holds B's columns [q kNr, (q + 1) kNr).
/// Panels below `first_packed` are read in place from a row-major B; the
/// rest are zero-padded K x kNr copies at `packed`. With `accumulate`, the
/// tile adds its result to C's old value instead of overwriting it.
struct Gemm {
  View a;
  std::size_t K, N;
  View b;
  const float* packed;
  std::size_t first_packed;
  const float* bias;
  float* c;
  bool accumulate;
};

/// Copies B's columns from j0 on into zero-padded K x kNr panels, in a
/// buffer of the calling thread's that lives until its next call.
const float* pack_panels(View b, std::size_t K, std::size_t N, std::size_t j0) {
  thread_local std::vector<float> buf;
  buf.assign((N - j0 + kNr - 1) / kNr * K * kNr, 0.0f);
  for (std::size_t j = j0; j < N; ++j) {
    float* dst = buf.data() + (j - j0) / kNr * K * kNr + (j - j0) % kNr;
    for (std::size_t k = 0; k < K; ++k) dst[k * kNr] = b.p[k * b.rs + j * b.cs];
  }
  return buf.data();
}

/// The Gemm for C = A * B (+ bias) into c, with B's panels packed into the
/// calling thread's buffer: a partial last panel of a row-major B, or every
/// panel of a transposed one.
Gemm make_gemm(View a, View b, std::size_t K, std::size_t N, const float* bias,
               float* c, bool accumulate) {
  const std::size_t first_packed = b.cs == 1 ? N / kNr : 0;
  const float* packed = pack_panels(b, K, N, first_packed * kNr);
  return {a, K, N, b, packed, first_packed, bias, c, accumulate};
}

/// Rows [i, i + MR) of C by panels [q, q + NP), which are all read in place
/// or all packed: MR x NP accumulator vectors, seeded with the bias, gather
/// A(row, k) * panel row k in ascending k.
template <std::size_t MR, std::size_t NP>
void gemm_tile(const Gemm& g, std::size_t i, std::size_t q) {
  // Panel q's first row, the stride between its rows, and the offset from
  // one panel to the next.
  const float* b = g.b.p + q * kNr;
  std::size_t ldb = g.b.rs;
  std::size_t next = kNr;
  if (q >= g.first_packed) {
    b = g.packed + (q - g.first_packed) * g.K * kNr;
    ldb = kNr;
    next = g.K * kNr;
  }
  const float* a = g.a.p + i * g.a.rs;
  const auto width = [&g, q](std::size_t p) {
    return std::min(kNr, g.N - (q + p) * kNr);
  };
  Vf16 acc[MR][NP];
#pragma GCC unroll 8
  for (std::size_t p = 0; p < NP; ++p) {
    const Vf16 init = g.bias ? load(g.bias + (q + p) * kNr, width(p)) : Vf16{};
#pragma GCC unroll 8
    for (std::size_t r = 0; r < MR; ++r) acc[r][p] = init;
  }
  for (std::size_t k = 0; k < g.K; ++k) {
    const float* bk = b + k * ldb;
    const float* ak = a + k * g.a.cs;
#pragma GCC unroll 8
    for (std::size_t p = 0; p < NP; ++p) {
      const Vf16 bv = load16(bk + p * next);
#pragma GCC unroll 8
      for (std::size_t r = 0; r < MR; ++r) acc[r][p] += ak[r * g.a.rs] * bv;
    }
  }
  for (std::size_t r = 0; r < MR; ++r) {
    for (std::size_t p = 0; p < NP; ++p) {
      float* c = g.c + (i + r) * g.N + (q + p) * kNr;
      const std::size_t w = width(p);
      store(c, g.accumulate ? load(c, w) + acc[r][p] : acc[r][p], w);
    }
  }
}

/// Row i of C: up to kMr panels at a time, so a lone row runs kMr
/// independent chains of FMAs instead of one latency-bound chain.
void gemm_row(const Gemm& g, std::size_t i) {
  const std::size_t panels = (g.N + kNr - 1) / kNr;
  for (std::size_t q = 0; q < panels;) {
    const std::size_t alike = (q < g.first_packed ? g.first_packed : panels) - q;
    if (alike >= kMr) {
      gemm_tile<1, kMr>(g, i, q);
      q += kMr;
    } else if (alike >= kMr / 2) {
      gemm_tile<1, kMr / 2>(g, i, q);
      q += kMr / 2;
    } else {
      gemm_tile<1, 1>(g, i, q++);
    }
  }
}

/// Rows [r0, r1) of C on the calling thread: kMr-row blocks from r0 on, each
/// over pairs of like panels where the ISA holds the pair tile, then the
/// last rows one at a time. Every path gives an element the same FMAs in
/// ascending k, so its bits do not depend on the path or the row range.
void gemm_rows(const Gemm& g, std::size_t r0, std::size_t r1) {
  const std::size_t panels = (g.N + kNr - 1) / kNr;
  std::size_t i = r0;
  for (; i + kMr <= r1; i += kMr) {
    for (std::size_t q = 0; q < panels;) {
      const bool in_place = q + 1 < g.first_packed;
      const bool packed = q >= g.first_packed && q + 1 < panels;
      if (kPanelPairs && (in_place || packed)) {
        gemm_tile<kMr, 2>(g, i, q);
        q += 2;
      } else {
        gemm_tile<kMr, 1>(g, i, q++);
      }
    }
  }
  for (; i < r1; ++i) gemm_row(g, i);
}

/// C = A * B (+ bias) into c, rows [r0, r1) only, on the calling thread. With
/// no K to accumulate over (and no operand memory to point into), a row is
/// its bias or zero, and an accumulating product adds nothing.
void gemm_rows(View a, View b, std::size_t K, std::size_t N, const float* bias,
               float* c, bool accumulate, std::size_t r0, std::size_t r1) {
  if (r0 >= r1 || (K == 0 && accumulate)) return;
  if (K == 0) {
    for (std::size_t r = r0; r < r1; ++r) {
      float* row = c + r * N;
      if (bias != nullptr) {
        std::copy(bias, bias + N, row);
      } else {
        std::fill(row, row + N, 0.0f);
      }
    }
    return;
  }
  gemm_rows(make_gemm(a, b, K, N, bias, c, accumulate), r0, r1);
}

/// C = A * B (+ bias). Row blocks of kMr go to the compute pool when the
/// product is big enough, in chunks of roughly half the parallel threshold;
/// the last M % kMr rows take the one-row path, as does a single-row
/// product (explorer inference), which then packs nothing but a partial
/// last panel.
Matrix gemm(View a, View b, std::size_t M, std::size_t K, std::size_t N,
            const float* bias) {
  Matrix c(M, N);
  if (K == 0) {
    gemm_rows(a, b, K, N, bias, c.data().data(), false, 0, M);
    return c;
  }
  const Gemm g = make_gemm(a, b, K, N, bias, c.data().data(), false);
  const std::size_t blocks = (M + kMr - 1) / kMr;
  const double flops = 2.0 * static_cast<double>(M) * static_cast<double>(K) *
                       static_cast<double>(N);
  std::shared_ptr<ThreadPool> pool;
  if (flops >= kMinParallelFlops) pool = compute_pool();
  if (!pool) {
    gemm_rows(g, 0, M);
    return c;
  }
  const double flops_per_block = flops / static_cast<double>(blocks);
  const auto grain = static_cast<std::size_t>(kMinParallelFlops / 2 / flops_per_block);
  // The scope also attaches the pool's "xt-compute" workers to the profiler
  // the first time they execute a chunk.
  pool->parallel_for(blocks, std::max<std::size_t>(grain, 1),
                     [&g, M](std::size_t b0, std::size_t b1) {
                       ProfScope prof("gemm");
                       gemm_rows(g, b0 * kMr, std::min(b1 * kMr, M));
                     });
  return c;
}

View plain(const Matrix& m) { return {m.data().data(), m.cols(), 1}; }
View transposed(const Matrix& m) { return {m.data().data(), 1, m.cols()}; }

// ---- tanh kernel ----------------------------------------------------------

// Inputs are clamped to the range the rational below is fitted on; past it
// the rational leaves [-1, 1].
constexpr float kTanhClamp = 7.90531110763549805f;

/// tanh as a rational minimax approximation (Eigen's float coefficients):
/// an odd degree-13 numerator over an even degree-6 denominator, in Vf16
/// lanes.
Vf16 tanh_rational(Vf16 x) {
  const Vf16 hi = Vf16{} + kTanhClamp;
  const Vf16 lo = Vf16{} - kTanhClamp;
  // Both comparisons are false for NaN, which passes through unclamped.
  x = x > hi ? hi : x;
  x = x < lo ? lo : x;
  const Vf16 x2 = x * x;
  Vf16 p = x2 * -2.76076847742355e-16f + 2.00018790482477e-13f;
  p = x2 * p - 8.60467152213735e-11f;
  p = x2 * p + 5.12229709037114e-08f;
  p = x2 * p + 1.48572235717979e-05f;
  p = x2 * p + 6.37261928875436e-04f;
  p = x2 * p + 4.89352455891786e-03f;
  Vf16 q = x2 * 1.19825839466702e-06f + 1.18534705686654e-04f;
  q = x2 * q + 2.26843463243900e-03f;
  q = x2 * q + 4.89352518554385e-03f;
  return x * p / q;
}

// ---- per-kernel telemetry -------------------------------------------------

thread_local KernelMetrics t_kernel_sink;

/// Times one matmul call into the thread's bound sink; free when unbound.
class KernelScope {
 public:
  KernelScope(std::size_t m, std::size_t k, std::size_t n)
      : active_(t_kernel_sink.gemm_ms != nullptr),
        flops_(2.0 * static_cast<double>(m) * static_cast<double>(k) *
               static_cast<double>(n)) {}
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

void bind_kernel_metrics(MetricsRegistry* registry, std::string_view role,
                         std::uint16_t machine) {
  if (registry == nullptr) {
    t_kernel_sink = KernelMetrics{};
    return;
  }
  t_kernel_sink.gemm_ms = &registry->histogram(metric::xt_gemm_ms, {role, machine});
  t_kernel_sink.gemm_flops =
      &registry->counter(metric::xt_gemm_flops_total, {role, machine});
}

KernelMetrics kernel_metrics() { return t_kernel_sink; }

KernelMetricsScope::KernelMetricsScope(KernelMetrics metrics) : saved_(t_kernel_sink) {
  t_kernel_sink = metrics;
}

KernelMetricsScope::~KernelMetricsScope() { t_kernel_sink = saved_; }

void Matrix::add_inplace(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  float* x = data_.data();
  const float* y = other.data_.data();
  for_lanes(size(), [x, y](std::size_t i, std::size_t w) {
    store(x + i, load(x + i, w) + load(y + i, w), w);
  });
}

void Matrix::scale_inplace(float s) {
  float* x = data_.data();
  for_lanes(size(), [x, s](std::size_t i, std::size_t w) {
    store(x + i, load(x + i, w) * s, w);
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
  KernelScope scope(a.rows(), a.cols(), b.cols());
  return gemm(plain(a), plain(b), a.rows(), a.cols(), b.cols(), nullptr);
}

Matrix matmul_bias(const Matrix& a, const Matrix& b, const Matrix& bias_row) {
  assert(a.cols() == b.rows());
  assert(bias_row.rows() == 1 && bias_row.cols() == b.cols());
  KernelScope scope(a.rows(), a.cols(), b.cols());
  return gemm(plain(a), plain(b), a.rows(), a.cols(), b.cols(), bias_row.row_ptr(0));
}

Matrix matmul_at(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  KernelScope scope(a.cols(), a.rows(), b.cols());
  return gemm(transposed(a), plain(b), a.cols(), a.rows(), b.cols(), nullptr);
}

Matrix matmul_bt(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  KernelScope scope(a.rows(), a.cols(), b.rows());
  return gemm(plain(a), transposed(b), a.rows(), a.cols(), b.rows(), nullptr);
}

void matmul_bias_rows(const Matrix& a, const Matrix& b, const Matrix& bias_row,
                      Matrix& c, std::size_t r0, std::size_t r1) {
  assert(a.cols() == b.rows() && c.rows() == a.rows() && c.cols() == b.cols());
  assert(bias_row.rows() == 1 && bias_row.cols() == b.cols());
  assert(r0 <= r1 && r1 <= c.rows());
  KernelScope scope(r1 - r0, a.cols(), b.cols());
  gemm_rows(plain(a), plain(b), a.cols(), b.cols(), bias_row.row_ptr(0),
            c.data().data(), false, r0, r1);
}

void matmul_bt_rows(const Matrix& a, const Matrix& b, Matrix& c, std::size_t r0,
                    std::size_t r1) {
  assert(a.cols() == b.cols() && c.rows() == a.rows() && c.cols() == b.rows());
  assert(r0 <= r1 && r1 <= c.rows());
  KernelScope scope(r1 - r0, a.cols(), b.rows());
  gemm_rows(plain(a), transposed(b), a.cols(), b.rows(), nullptr, c.data().data(),
            false, r0, r1);
}

void add_matmul_at_rows(const Matrix& a, const Matrix& b, Matrix& c, std::size_t r0,
                        std::size_t r1) {
  assert(a.rows() == b.rows() && c.rows() == a.cols() && c.cols() == b.cols());
  assert(r0 <= r1 && r1 <= c.rows());
  KernelScope scope(r1 - r0, a.rows(), b.cols());
  gemm_rows(transposed(a), plain(b), a.rows(), b.cols(), nullptr, c.data().data(),
            true, r0, r1);
}

Matrix col_sums(const Matrix& x) {
  Matrix out(1, x.cols());
  // Each column's sum accumulates the rows in ascending order.
  for_lanes(x.cols(), [&x, &out](std::size_t j, std::size_t w) {
    Vf16 sum{};
    for (std::size_t r = 0; r < x.rows(); ++r) sum += load(x.row_ptr(r) + j, w);
    store(out.row_ptr(0) + j, sum, w);
  });
  return out;
}

void tanh_inplace(Matrix& x) { tanh_inplace(x.data().data(), x.size()); }

void tanh_inplace(float* x, std::size_t n) {
  for_lanes(n, [x](std::size_t i, std::size_t w) {
    store(x + i, tanh_rational(load(x + i, w)), w);
  });
}

void relu_inplace(float* x, std::size_t n) {
  for_lanes(n, [x](std::size_t i, std::size_t w) {
    const Vf16 xi = load(x + i, w);
    store(x + i, xi > 0.0f ? xi : Vf16{}, w);
  });
}

void tanh_grad_inplace(float* grad, const float* h, std::size_t n) {
  for_lanes(n, [grad, h](std::size_t i, std::size_t w) {
    const Vf16 hi = load(h + i, w);
    store(grad + i, load(grad + i, w) * (1.0f - hi * hi), w);
  });
}

void relu_grad_inplace(float* grad, const float* h, std::size_t n) {
  for_lanes(n, [grad, h](std::size_t i, std::size_t w) {
    store(grad + i, load(h + i, w) <= 0.0f ? Vf16{} : load(grad + i, w), w);
  });
}

float adam_kernel(const std::vector<Matrix*>& params, const std::vector<Matrix*>& grads,
                  std::vector<std::vector<float>>& m,
                  std::vector<std::vector<float>>& v, const AdamCoefficients& c,
                  std::optional<float> max_norm) {
  float norm = 0.0f;
  float scale = 1.0f;
  if (max_norm) {
    Vf16 sq{};
    for (const Matrix* g : grads) {
      const float* x = g->data().data();
      for_lanes(g->size(), [x, &sq](std::size_t i, std::size_t w) {
        const Vf16 xi = load(x + i, w);
        sq += xi * xi;
      });
    }
    norm = __builtin_sqrtf(lane_sum(sq));
    if (norm > *max_norm && norm > 0.0f) scale = *max_norm / norm;
  }
  // m_hat / (sqrt(v_hat) + eps) with the bias corrections folded into two
  // constants: step = lr / bias1 and 1 / sqrt(bias2).
  const float b1 = c.beta1, b2 = c.beta2;
  const float step = c.lr / c.bias1;
  const float inv_sqrt_bias2 = 1.0f / __builtin_sqrtf(c.bias2);
  const float eps = c.eps;
  for (std::size_t t = 0; t < params.size(); ++t) {
    float* p = params[t]->data().data();
    float* g = grads[t]->data().data();
    float* mt = m[t].data();
    float* vt = v[t].data();
    for_lanes(params[t]->size(), [=](std::size_t i, std::size_t w) {
      const Vf16 gi = load(g + i, w) * scale;
      const Vf16 mi = b1 * load(mt + i, w) + (1.0f - b1) * gi;
      const Vf16 vi = b2 * load(vt + i, w) + (1.0f - b2) * gi * gi;
      store(g + i, gi, w);
      store(mt + i, mi, w);
      store(vt + i, vi, w);
      store(p + i, load(p + i, w) - step * mi / (sqrt16(vi) * inv_sqrt_bias2 + eps), w);
    });
  }
  return norm;
}

}  // namespace xt::nn
