// Compute-kernel microbenchmark: GFLOP/s of the three matmul variants over
// paper-relevant shapes, for three configurations —
//   scalar: the retained pre-optimization reference (nn/matrix_ref.cpp)
//   serial: the blocked kernels on one compute thread
//   pooled: the blocked kernels on the shared pool (hardware threads)
// — and a machine-readable BENCH_kernels.json artifact that the CI
// bench-smoke job archives and gates on (pooled must stay within 2x of
// serial on the same machine; see .github/workflows/ci.yml).

#include "bench_util.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/matrix.h"

namespace {

using namespace xt;
using namespace xt::bench;
using nn::Matrix;

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (auto& v : m.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return m;
}

enum class Kernel { kMatmul, kMatmulAt, kMatmulBt };

constexpr unsigned bit(Kernel k) { return 1u << static_cast<unsigned>(k); }
constexpr unsigned kAllKernels = bit(Kernel::kMatmul) | bit(Kernel::kMatmulAt) |
                                 bit(Kernel::kMatmulBt);

struct Shape {
  const char* why;  ///< what hot-path call this shape stands for
  std::size_t m, k, n;
  unsigned kernels = kAllKernels;  ///< the kernels that run this shape
};

// MLP-substrate shapes (hidden = 64, fragment_len = 500 as in bench_fig7),
// ppo_sync_2m's learner products (256-row minibatches, hidden 128, a 4-wide
// output layer; each kernel in the orientation the learner calls it), plus
// square sizes the acceptance gate tracks.
const Shape kShapes[] = {
    {"inference (1 obs x 64x64 layer)", 1, 64, 64},
    {"train fwd (500-step fragment)", 500, 64, 64},
    {"train fwd (128-d observations)", 500, 128, 64},
    {"ppo fwd (256-row minibatch)", 256, 128, 128, bit(Kernel::kMatmul)},
    {"ppo fwd, thin N (4-wide output)", 256, 128, 4, bit(Kernel::kMatmul)},
    {"ppo dW (256-row minibatch)", 128, 256, 128, bit(Kernel::kMatmulAt)},
    {"ppo dW, thin N (4-wide output)", 128, 256, 4, bit(Kernel::kMatmulAt)},
    {"ppo dX (256-row minibatch)", 256, 128, 128, bit(Kernel::kMatmulBt)},
    {"ppo dX, thin K (4-wide output)", 256, 4, 128, bit(Kernel::kMatmulBt)},
    {"square 128", 128, 128, 128},
    {"square 256", 256, 256, 256},
    {"square 384", 384, 384, 384},
    {"square 512", 512, 512, 512},
};

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kMatmul:
      return "matmul";
    case Kernel::kMatmulAt:
      return "matmul_at";
    case Kernel::kMatmulBt:
      return "matmul_bt";
  }
  return "?";
}

/// Time one configuration, adaptively repeating until ~80 ms elapsed, and
/// return GFLOP/s. `scalar` picks the reference kernels.
double measure_gflops(Kernel kernel, const Shape& shape, bool scalar, Rng& rng) {
  // Operand layouts per variant (output is always m x n):
  //   matmul:    a m x k, b k x n     matmul_at: a k x m, b k x n
  //   matmul_bt: a m x k, b n x k
  const Matrix a = kernel == Kernel::kMatmulAt ? random_matrix(shape.k, shape.m, rng)
                                               : random_matrix(shape.m, shape.k, rng);
  const Matrix b = kernel == Kernel::kMatmulBt ? random_matrix(shape.n, shape.k, rng)
                                               : random_matrix(shape.k, shape.n, rng);
  const double flops = 2.0 * static_cast<double>(shape.m) *
                       static_cast<double>(shape.n) * static_cast<double>(shape.k);
  float sink = 0.0f;
  auto run_once = [&] {
    Matrix c;
    switch (kernel) {
      case Kernel::kMatmul:
        c = scalar ? nn::reference::matmul(a, b) : nn::matmul(a, b);
        break;
      case Kernel::kMatmulAt:
        c = scalar ? nn::reference::matmul_at(a, b) : nn::matmul_at(a, b);
        break;
      case Kernel::kMatmulBt:
        c = scalar ? nn::reference::matmul_bt(a, b) : nn::matmul_bt(a, b);
        break;
    }
    sink += c.empty() ? 0.0f : c.data().front();  // defeat dead-code elimination
  };
  run_once();  // warm caches, fault pool threads in
  int reps = 0;
  const Stopwatch watch;
  do {
    run_once();
    ++reps;
  } while (watch.elapsed_ms() < 80.0 && reps < 1'000'000);
  const double seconds = static_cast<double>(watch.elapsed_ns()) * 1e-9;
  if (sink == 12345.678f) std::printf("#");  // keep `sink` observable
  return flops * reps / seconds / 1e9;
}

struct Entry {
  Kernel kernel;
  Shape shape;
  double scalar_gflops;
  double serial_gflops;
  double pooled_gflops;
};

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }
  banner("Compute kernels: GFLOP/s, scalar reference vs blocked vs pooled");
  const int hw_threads = []() {
    set_compute_threads(-1);
    return compute_threads();
  }();
  // The scalar reference column moves with the optimization level (-O2 vs
  // -O3), so a run compares only with a baseline of its own build type.
  const std::string build_type = XT_BUILD_TYPE;
  std::printf("build type %s; pooled mode uses %d compute thread(s)\n\n",
              build_type.c_str(), hw_threads);
  if (build_type != "Release") {
    std::printf("WARNING: not a Release build: BENCH_kernels.json is recorded from "
                "Release, so its columns do not compare with this run\n\n");
  }
  std::printf("%-10s %-34s %10s %10s %10s %8s\n", "kernel", "shape (m,k,n)",
              "scalar", "serial", "pooled", "pool/sc");

  Rng rng(42);
  std::vector<Entry> entries;
  for (const Kernel kernel : {Kernel::kMatmul, Kernel::kMatmulAt, Kernel::kMatmulBt}) {
    for (const Shape& shape : kShapes) {
      if ((shape.kernels & bit(kernel)) == 0) continue;
      Entry e{kernel, shape, 0, 0, 0};
      e.scalar_gflops = measure_gflops(kernel, shape, /*scalar=*/true, rng);
      set_compute_threads(1);
      e.serial_gflops = measure_gflops(kernel, shape, /*scalar=*/false, rng);
      set_compute_threads(-1);
      e.pooled_gflops = measure_gflops(kernel, shape, /*scalar=*/false, rng);
      entries.push_back(e);
      char shape_text[64];
      std::snprintf(shape_text, sizeof(shape_text), "%zux%zux%zu %s", shape.m,
                    shape.k, shape.n, shape.why);
      std::printf("%-10s %-34.34s %10.2f %10.2f %10.2f %7.2fx\n",
                  kernel_name(kernel), shape_text, e.scalar_gflops,
                  e.serial_gflops, e.pooled_gflops,
                  e.pooled_gflops / e.scalar_gflops);
    }
  }
  set_compute_threads(-1);

  // The acceptance shape: on big products the blocked+pooled path must beat
  // the pre-PR scalar kernel clearly (>= 4x on the matmul the MLP forward
  // rides; relative, so any host judges itself). The thin output-layer
  // shape is not big: its 2^18 flops just reach the pool, whose dispatch
  // then costs as much as the product.
  for (const Entry& e : entries) {
    if (e.kernel == Kernel::kMatmul && e.shape.m >= 256 &&
        std::min(e.shape.k, e.shape.n) >= 64) {
      char what[96];
      std::snprintf(what, sizeof(what),
                    "matmul %zux%zux%zu: pooled >= 4x scalar (%.2f vs %.2f GFLOP/s)",
                    e.shape.m, e.shape.k, e.shape.n, e.pooled_gflops,
                    e.scalar_gflops);
      shape_check(what, e.pooled_gflops >= 4.0 * e.scalar_gflops);
    }
  }

  std::vector<std::vector<JsonField>> rows;
  for (const Entry& e : entries) {
    rows.push_back({{"kernel", kernel_name(e.kernel)},
                    {"m", e.shape.m},
                    {"k", e.shape.k},
                    {"n", e.shape.n},
                    {"why", e.shape.why},
                    {"scalar_gflops", e.scalar_gflops},
                    {"serial_gflops", e.serial_gflops},
                    {"pooled_gflops", e.pooled_gflops}});
  }
  const std::vector<JsonField> fields = {{"build_type", build_type},
                                         {"pooled_threads", hw_threads}};
  if (!write_artifact(json_path, "bench_kernels", fields, rows)) return 1;

  return finish("bench_kernels");
}
