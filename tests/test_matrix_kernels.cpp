// Property tests for the blocked/pooled compute kernels (nn/matrix.cpp)
// against the retained scalar reference (nn/matrix_ref.cpp), the
// determinism contract, and a concurrency hammer over ThreadPool — the
// latter is in the TSan CI job's target list.

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/matrix.h"
#include "nn/mlp.h"
#include "obs/catalog.h"
#include "obs/metrics.h"

namespace xt::nn {
namespace {

/// Every test leaves the process in auto mode, whatever it configured.
class MatrixKernels : public ::testing::Test {
 protected:
  void TearDown() override { set_compute_threads(-1); }

  Matrix random(std::size_t rows, std::size_t cols, Rng& rng) {
    Matrix m(rows, cols);
    for (auto& v : m.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
    return m;
  }
};

// Shapes that stress every edge of the blocking scheme: empty, single
// row/column, the register-tile sizes (4, 16), one off them in both
// directions, and non-multiples well above them.
const std::size_t kShapes[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 33, 50, 64, 100};

TEST_F(MatrixKernels, MatmulMatchesReferenceAcrossShapes) {
  set_compute_threads(4);
  Rng rng(101);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t m = kShapes[rng.uniform_index(std::size(kShapes))];
    const std::size_t k = kShapes[rng.uniform_index(std::size(kShapes))];
    const std::size_t n = kShapes[rng.uniform_index(std::size(kShapes))];
    const Matrix a = random(m, k, rng);
    const Matrix b = random(k, n, rng);
    const Matrix got = matmul(a, b);
    const Matrix want = reference::matmul(a, b);
    ASSERT_TRUE(allclose(got, want, 1e-4f, 1e-5f))
        << "matmul mismatch at m=" << m << " k=" << k << " n=" << n;
  }
}

TEST_F(MatrixKernels, MatmulAtMatchesReferenceAcrossShapes) {
  set_compute_threads(4);
  Rng rng(102);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t r = kShapes[rng.uniform_index(std::size(kShapes))];
    const std::size_t m = kShapes[rng.uniform_index(std::size(kShapes))];
    const std::size_t n = kShapes[rng.uniform_index(std::size(kShapes))];
    const Matrix a = random(r, m, rng);
    const Matrix b = random(r, n, rng);
    const Matrix got = matmul_at(a, b);
    const Matrix want = reference::matmul_at(a, b);
    ASSERT_TRUE(allclose(got, want, 1e-4f, 1e-5f))
        << "matmul_at mismatch at r=" << r << " m=" << m << " n=" << n;
  }
}

TEST_F(MatrixKernels, MatmulBtMatchesReferenceAcrossShapes) {
  set_compute_threads(4);
  Rng rng(103);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t m = kShapes[rng.uniform_index(std::size(kShapes))];
    const std::size_t k = kShapes[rng.uniform_index(std::size(kShapes))];
    const std::size_t n = kShapes[rng.uniform_index(std::size(kShapes))];
    const Matrix a = random(m, k, rng);
    const Matrix b = random(n, k, rng);
    const Matrix got = matmul_bt(a, b);
    const Matrix want = reference::matmul_bt(a, b);
    ASSERT_TRUE(allclose(got, want, 1e-4f, 1e-5f))
        << "matmul_bt mismatch at m=" << m << " k=" << k << " n=" << n;
  }
}

TEST_F(MatrixKernels, MatmulBiasMatchesUnfusedPipeline) {
  set_compute_threads(4);
  Rng rng(104);
  for (int iter = 0; iter < 100; ++iter) {
    const std::size_t m = kShapes[rng.uniform_index(std::size(kShapes))];
    const std::size_t k = kShapes[rng.uniform_index(std::size(kShapes))];
    const std::size_t n = kShapes[rng.uniform_index(std::size(kShapes))];
    const Matrix a = random(m, k, rng);
    const Matrix b = random(k, n, rng);
    const Matrix bias = random(1, n, rng);
    const Matrix got = matmul_bias(a, b, bias);
    Matrix want = reference::matmul(a, b);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < n; ++c) want.at(r, c) += bias.at(0, c);
    }
    ASSERT_TRUE(allclose(got, want, 1e-4f, 1e-5f))
        << "matmul_bias mismatch at m=" << m << " k=" << k << " n=" << n;
  }
}

// Results must not depend on how many threads computed them: each output
// element is owned by one chunk and accumulated in a fixed order, so any
// thread count produces the same bits, and 0 (no pool) runs the path of 1.
TEST_F(MatrixKernels, BlockedResultsInvariantAcrossThreadCounts) {
  Rng rng(106);
  const Matrix a = random(123, 67, rng);
  const Matrix b = random(67, 95, rng);
  const Matrix bt = random(95, 67, rng);
  // A tanh Mlp's training step: its forward_train output, then every
  // parameter gradient. The first layer is big enough to be pooled.
  const Matrix grad_out = random(123, 5, rng);
  const auto train_step = [&a, &grad_out] {
    Rng init_rng(7);
    Mlp net(67, {{95, Activation::kTanh}, {33, Activation::kTanh},
                 {5, Activation::kIdentity}}, init_rng);
    std::vector<Matrix> out = {net.forward_train(a)};
    net.backward(grad_out);
    for (const Matrix* g : net.gradients()) out.push_back(*g);
    return out;
  };
  set_compute_threads(1);
  const Matrix c1 = matmul(a, b);
  const Matrix at1 = matmul_at(a, matmul(a, b));
  const Matrix bt1 = matmul_bt(a, bt);
  const std::vector<Matrix> step1 = train_step();
  for (int threads : {0, 2, 3, 8}) {
    set_compute_threads(threads);
    EXPECT_TRUE(matmul(a, b) == c1) << "threads=" << threads;
    EXPECT_TRUE(matmul_at(a, matmul(a, b)) == at1) << "threads=" << threads;
    EXPECT_TRUE(matmul_bt(a, bt) == bt1) << "threads=" << threads;
    EXPECT_TRUE(train_step() == step1) << "threads=" << threads;
  }
}

// A row's bits do not depend on the path that computes it: a lone row (the
// one-row path, several panels at a time) matches the same row inside an
// 8-row block, whose tile runs two like panels at once where the ISA holds
// that tile. N = 200 is six in-place panel pairs and a packed partial
// panel; N = 56 an in-place pair, a lone in-place panel, then a packed
// partial panel. matmul_bt packs every panel, so its pairs are all packed,
// the last one partial at N = 56.
TEST_F(MatrixKernels, OneRowPathBitIdenticalToRowBlocks) {
  set_compute_threads(1);
  Rng rng(109);
  const Matrix a = random(9, 70, rng);
  const Matrix at = random(70, 9, rng);
  for (std::size_t n : {200, 56}) {
    const Matrix b = random(70, n, rng);
    const Matrix bias = random(1, n, rng);
    const Matrix bt = random(n, 70, rng);
    const Matrix block = matmul_bias(a, b, bias);
    const Matrix block_bt = matmul_bt(a, bt);
    const Matrix block_at = matmul_at(at, b);
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const Matrix row = Matrix::from_row(a.row(i));
      Matrix column(at.rows(), 1);
      for (std::size_t k = 0; k < at.rows(); ++k) column.at(k, 0) = at.at(k, i);
      SCOPED_TRACE("N " + std::to_string(n) + " row " + std::to_string(i));
      EXPECT_EQ(matmul_bias(row, b, bias).row(0), block.row(i));
      EXPECT_EQ(matmul_bt(row, bt).row(0), block_bt.row(i));
      EXPECT_EQ(matmul_at(column, b).row(0), block_at.row(i));
    }
  }
}

// The row-range forms give a row the bits of the whole-matrix product,
// wherever the range starts: 7 and 201 cut the 8-row blocks off their
// usual boundaries. add_matmul_at_rows adds to what the rows held.
TEST_F(MatrixKernels, RowRangeFormsMatchWholeProducts) {
  Rng rng(111);
  const Matrix a = random(208, 40, rng);
  const Matrix b = random(40, 56, rng);
  const Matrix bias = random(1, 56, rng);
  const Matrix bt = random(56, 40, rng);
  const Matrix dy = random(208, 56, rng);
  const Matrix old = random(40, 56, rng);
  for (int threads : {0, 1, 4}) {
    set_compute_threads(threads);
    Matrix want_at = old;
    want_at.add_inplace(matmul_at(a, dy));
    Matrix got(208, 56), got_bt(208, 56), got_at = old;
    using Rows = std::pair<std::size_t, std::size_t>;
    for (const auto& [r0, r1] : {Rows{0, 7}, Rows{7, 208}}) {
      matmul_bias_rows(a, b, bias, got, r0, r1);
      matmul_bt_rows(a, bt, got_bt, r0, r1);
    }
    add_matmul_at_rows(a, dy, got_at, 0, 13);
    add_matmul_at_rows(a, dy, got_at, 13, 40);
    EXPECT_TRUE(got == matmul_bias(a, b, bias)) << "threads=" << threads;
    EXPECT_TRUE(got_bt == matmul_bt(a, bt)) << "threads=" << threads;
    EXPECT_TRUE(got_at == want_at) << "threads=" << threads;
  }
}

// Nested pool use with the packed-panel path: matmul_bt packs all of B^T into
// its calling thread's buffer, which the pool's threads read until the product
// returns. Two such products run as the two tasks of one compute_tasks job
// give the bits they give one after the other. Several callers do this at once,
// so the queue holds unclaimed tasks while products wait for their chunks: a
// waiting thread that ran one of them would repack the panels under its own
// product's readers. Shapes differ, so a buffer shared between threads or
// repacked too early shows up as wrong bits.
TEST_F(MatrixKernels, ConcurrentPackedProductsMatchSequential) {
  Rng rng(110);
  const Matrix a0 = random(256, 128, rng);
  const Matrix b0 = random(128, 128, rng);
  const Matrix a1 = random(200, 96, rng);
  const Matrix b1 = random(112, 96, rng);
  for (int threads : {2, 3, 4}) {
    set_compute_threads(threads);
    const Matrix want0 = matmul_bt(a0, b0);
    const Matrix want1 = matmul_bt(a1, b1);
    std::atomic<int> mismatches{0};
    std::vector<std::thread> callers;
    for (int c = 0; c < 3; ++c) {
      callers.emplace_back([&] {
        for (int round = 0; round < 20; ++round) {
          Matrix got[2];
          compute_tasks(2, [&](std::size_t task) {
            got[task] = task == 0 ? matmul_bt(a0, b0) : matmul_bt(a1, b1);
          });
          if (!(got[0] == want0) || !(got[1] == want1)) mismatches.fetch_add(1);
        }
      });
    }
    for (auto& t : callers) t.join();
    EXPECT_EQ(mismatches.load(), 0) << "threads=" << threads;
  }
}

/// One row holding lo, lo + step, ..., hi.
Matrix grid(double lo, double hi, double step) {
  const auto n = static_cast<std::size_t>(std::llround((hi - lo) / step));
  Matrix m(1, n + 1);
  for (std::size_t i = 0; i <= n; ++i)
    m.data()[i] = static_cast<float>(lo + static_cast<double>(i) * step);
  return m;
}

// The blocked tanh against std::tanh on a dense grid, and near zero, where
// the relative error is largest: absolute error, range and odd symmetry.
TEST_F(MatrixKernels, TanhKernelAccurateBoundedAndOdd) {
  set_compute_threads(1);
  for (const Matrix& x : {grid(-12.0, 12.0, 1e-4), grid(-1e-3, 1e-3, 1e-8)}) {
    Matrix y = x;
    tanh_inplace(y);
    Matrix y_neg = x;
    y_neg.scale_inplace(-1.0f);
    tanh_inplace(y_neg);
    for (std::size_t i = 0; i < x.size(); ++i) {
      const float xi = x.data()[i];
      const float yi = y.data()[i];
      ASSERT_LE(std::abs(yi - std::tanh(xi)), 5e-7f) << "x=" << xi;
      ASSERT_LE(std::abs(yi), 1.0f) << "x=" << xi;
      ASSERT_EQ(y_neg.data()[i], -yi) << "x=" << xi;
    }
  }
}

TEST_F(MatrixKernels, TanhKernelSaturatesAndKeepsNan) {
  set_compute_threads(1);
  const float inf = std::numeric_limits<float>::infinity();
  Matrix m = Matrix::from_row({inf, -inf, std::numeric_limits<float>::quiet_NaN()});
  tanh_inplace(m);
  EXPECT_NEAR(m.at(0, 0), 1.0f, 5e-7f);
  EXPECT_LE(m.at(0, 0), 1.0f);
  EXPECT_EQ(m.at(0, 1), -m.at(0, 0));
  EXPECT_TRUE(std::isnan(m.at(0, 2)));
}

// An element's bits must not depend on where it sits: 4097 is one past a
// multiple of the vector width, so the last element takes the padded tail,
// and a lone element takes nothing else.
TEST_F(MatrixKernels, TanhKernelBitsIndependentOfPosition) {
  set_compute_threads(1);
  Rng rng(108);
  Matrix x = random(1, 4097, rng);
  x.scale_inplace(4.0f);
  Matrix all = x;
  tanh_inplace(all);
  for (std::size_t i = 0; i < x.size(); ++i) {
    Matrix one(1, 1, x.data()[i]);
    tanh_inplace(one);
    ASSERT_EQ(std::bit_cast<std::uint32_t>(one.data()[0]),
              std::bit_cast<std::uint32_t>(all.data()[i]))
        << "i=" << i << " x=" << x.data()[i];
  }
}

TEST_F(MatrixKernels, KernelMetricsRecordTimeAndFlops) {
  set_compute_threads(2);
  MetricsRegistry registry;
  bind_kernel_metrics(&registry, "test", 2);
  Rng rng(107);
  const Matrix a = random(32, 48, rng);
  const Matrix b = random(48, 16, rng);
  (void)matmul(a, b);
  (void)matmul_bias(a, b, random(1, 16, rng));
  bind_kernel_metrics(nullptr);
  (void)matmul(a, b);  // unbound: must not record
  const auto& hist = registry.histogram(metric::xt_gemm_ms, {"test", 2});
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_EQ(registry.counter(metric::xt_gemm_flops_total, {"test", 2}).value(),
            2ull * 2 * 32 * 48 * 16);
  EXPECT_EQ(registry.counters().front().first,
            "xt_gemm_flops_total{role=\"test\",machine=\"2\"}");
}

TEST(MatrixAllclose, ShapeValueAndNanRules) {
  const Matrix a = Matrix::from_rows({{1.0f, 2.0f}, {3.0f, 4.0f}});
  Matrix b = a;
  EXPECT_TRUE(allclose(a, b));
  b.at(1, 1) += 5e-6f;
  EXPECT_TRUE(allclose(a, b, 1e-4f));
  EXPECT_FALSE(allclose(a, b, 1e-7f, 0.0f));
  EXPECT_FALSE(allclose(a, Matrix::zeros(2, 3)));  // shape mismatch
  b.at(0, 0) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(allclose(a, b, 1e3f));
}

// ---- ThreadPool ----------------------------------------------------------

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(10'000);
  pool.parallel_for(hits.size(), 64, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, InlineBelowGrainAndWithNoWorkers) {
  ThreadPool empty(0);
  std::atomic<int> calls{0};
  empty.parallel_for(100, 1, [&](std::size_t b, std::size_t e) {
    calls.fetch_add(1);
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 100u);
  });
  EXPECT_EQ(calls.load(), 1);

  ThreadPool pool(4);
  calls = 0;
  pool.parallel_for(10, 100, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 1);  // n <= grain: one inline chunk
  pool.parallel_for(0, 1, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 1);  // empty range: no call
}

// The TSan-covered hammer: many caller threads issue parallel_for against
// one pool concurrently, each checking its own private accumulator.
TEST(ThreadPool, ConcurrentCallersHammer) {
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  constexpr int kRounds = 200;
  constexpr std::size_t kN = 2'048;
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &failures] {
      std::vector<std::uint32_t> out(kN, 0);
      for (int round = 0; round < kRounds; ++round) {
        pool.parallel_for(kN, 64, [&out](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) out[i] += static_cast<std::uint32_t>(i);
        });
      }
      for (std::size_t i = 0; i < kN; ++i) {
        if (out[i] != static_cast<std::uint32_t>(i) * kRounds) {
          failures.fetch_add(1);
          break;
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// More tasks than threads, and fewer: every index runs exactly once.
TEST(ThreadPool, TasksRunEachIndexOnce) {
  ThreadPool pool(3);
  for (std::size_t n : {0, 1, 2, 7, 64}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_tasks(n, [&hits](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "n=" << n;
  }
}

// A chunk body may call parallel_for on its own pool. Several callers run outer
// loops whose chunk bodies run inner loops on the same pool: every inner index
// is covered exactly once, and every call returns. A caller that left its own
// chunks to the workers, all busy in outer bodies, would wait forever; stuck
// threads cannot be joined, so a hang ends the process as a failure.
TEST(ThreadPool, NestedParallelForFromChunkBodies) {
  ThreadPool pool(3);
  constexpr int kCallers = 3;
  constexpr int kRounds = 50;
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 1'024;
  std::atomic<int> failures{0};
  std::atomic<int> finished{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::atomic<int>> hits(kOuter * kInner);
        pool.parallel_for(kOuter, 1, [&](std::size_t b, std::size_t e) {
          for (std::size_t o = b; o < e; ++o) {
            pool.parallel_for(kInner, 64, [&, o](std::size_t ib, std::size_t ie) {
              for (std::size_t i = ib; i < ie; ++i) hits[o * kInner + i].fetch_add(1);
            });
          }
        });
        for (const auto& h : hits) {
          if (h.load() != 1) {
            failures.fetch_add(1);
            break;
          }
        }
      }
      finished.fetch_add(1);
    });
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (finished.load() < kCallers) {
    if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr, "nested parallel_for did not finish in 60 s\n");
      std::_Exit(1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// pending() is the saturation probe's view of the pool: chunks submitted
// but not yet claimed. A single parallel_for never shows any (chunks are
// capped at one per participant), so saturate the pool with more concurrent
// jobs than it can absorb: the overflow job's chunks must be visible as
// unclaimed, and drain to zero once the gate opens.
TEST(ThreadPool, PendingReportsUnclaimedChunks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.workers(), 1u);
  EXPECT_EQ(pool.pending(), 0u);

  std::atomic<bool> release{false};
  const auto blocked_body = [&release](std::size_t, std::size_t) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  // Two 2-chunk jobs, three participants (two callers + one worker), every
  // body blocked: one chunk has nobody to claim it.
  std::thread a([&] { pool.parallel_for(2, 1, blocked_body); });
  std::thread b([&] { pool.parallel_for(2, 1, blocked_body); });

  bool saw_pending = false;
  for (int i = 0; i < 2'000 && !saw_pending; ++i) {
    saw_pending = pool.pending() > 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(saw_pending);

  release.store(true);
  a.join();
  b.join();
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPool, ComputeTasksHonourSerialMode) {
  set_compute_threads(0);
  std::vector<std::size_t> order;
  compute_tasks(5, [&order](std::size_t i) { order.push_back(i); });
  // Serial: inline on the caller, in index order, no pool.
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(compute_pool(), nullptr);
  set_compute_threads(3);
  EXPECT_NE(compute_pool(), nullptr);
  EXPECT_EQ(compute_pool()->workers(), 2u);  // caller is the third thread
  set_compute_threads(-1);
}

}  // namespace
}  // namespace xt::nn
