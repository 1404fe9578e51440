#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace xt {

/// Fixed pool of worker threads driving chunked data-parallel loops.
///
/// parallel_for() splits [0, n) into contiguous chunks that workers (and the
/// calling thread, which always participates) claim dynamically. Below the
/// grain size — or with no workers — the loop runs inline on the caller, so
/// small ranges pay nothing beyond one branch. Concurrent parallel_for calls
/// from different threads are safe: each call is an independent job and
/// workers drain jobs in FIFO order.
///
/// Chunking never splits an index, so a body that writes only its own
/// indices (the compute kernels partition output rows this way) produces
/// results independent of worker count and chunk boundaries.
///
/// Nesting: a chunk body may itself call parallel_for on the same pool
/// (a task that runs a pooled GEMM). A caller runs only its own job's
/// chunks, then waits for those other threads claimed, and never runs
/// another job's chunk meanwhile. So every wait is on a deeper job whose
/// chunks are already running, which cannot deadlock, and what a caller
/// keeps for the length of its call (the GEMM's thread-local packed panels)
/// is never overwritten while other threads read it.
class ThreadPool {
 public:
  /// Spawns `workers` threads. 0 workers is valid: every parallel_for then
  /// runs inline.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t workers() const { return threads_.size(); }

  /// Chunks submitted but not yet claimed by any participant, summed over
  /// the queued jobs. A sustained non-zero value means callers are producing
  /// parallel work faster than the pool drains it (the saturation signal
  /// behind `xt_pool_pending_chunks`).
  [[nodiscard]] std::size_t pending() const;

  /// Run body(begin, end) over contiguous subranges covering [0, n).
  /// Chunks hold at least `grain` indices (the last may be shorter only
  /// because n is exhausted). Returns when every chunk has finished.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// Run task(i) for every i in [0, n), each index a chunk of its own that
  /// any participant may claim, so tasks of uneven cost, or threads of
  /// uneven speed, balance themselves. Claimed in index order; returns when
  /// every task has finished. The nesting rules of parallel_for apply.
  void parallel_tasks(std::size_t n, const std::function<void(std::size_t)>& task);

 private:
  struct Job;
  void worker_loop();
  /// Runs body over [0, n) in `chunks` chunks of `chunk` indices.
  void run(std::size_t n, std::size_t chunk, std::size_t chunks,
           const std::function<void(std::size_t, std::size_t)>& body);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Job>> jobs_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

// ---- process-global compute pool -----------------------------------------
//
// The NN kernels (and anything else with a data-parallel hot loop) share one
// process-wide pool so a machine full of explorers does not oversubscribe
// itself with one pool per worker. Configured via `[compute] threads` in the
// launch config:
//   -1  auto: std::thread::hardware_concurrency()
//    0  serial: no pool, every kernel on the caller's thread (the same
//       path, and the same bits, as 1)
//    N  N compute threads total (a pool of N-1 workers plus the caller)

/// Set the configured compute-thread count (see above). Safe at any time;
/// in-flight parallel loops keep the pool they started with.
void set_compute_threads(int threads);

/// Resolved compute-thread count: 0 = serial, otherwise >= 1.
[[nodiscard]] int compute_threads();

/// The shared pool, or nullptr when compute_threads() <= 1 (nothing to farm
/// out). Hold the returned shared_ptr for the duration of use.
[[nodiscard]] std::shared_ptr<ThreadPool> compute_pool();

/// Run task(i) for each i in [0, n) as ThreadPool::parallel_tasks on the
/// shared compute pool; inline, in index order, without a pool.
void compute_tasks(std::size_t n, const std::function<void(std::size_t)>& task);

}  // namespace xt
