#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/thread_util.h"

namespace xt {

/// One parallel_for invocation. Workers and the caller claim chunk indices
/// from `next`; the last finisher wakes the caller waiting on `done`.
struct ThreadPool::Job {
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t n = 0;
  std::size_t chunk = 0;
  std::size_t chunks = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> pending{0};
  std::mutex mu;
  std::condition_variable done;

  /// Claim and run one chunk; false when every chunk is already claimed.
  bool run_one() {
    const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i >= chunks) return false;
    const std::size_t begin = i * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    (*body)(begin, end);
    if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mu);
      done.notify_all();
    }
    return true;
  }
};

ThreadPool::ThreadPool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  set_current_thread_name("xt-compute");
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stop_ set and nothing left to help with
      job = jobs_.front();
    }
    while (job->run_one()) {
    }
    // Exhausted (all chunks claimed, possibly still running elsewhere):
    // drop it from the queue so nobody spins on it.
    std::lock_guard<std::mutex> lock(mu_);
    if (!jobs_.empty() && jobs_.front() == job) jobs_.pop_front();
  }
}

std::size_t ThreadPool::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t unclaimed = 0;
  for (const std::shared_ptr<Job>& job : jobs_) {
    const std::size_t claimed = job->next.load(std::memory_order_relaxed);
    if (claimed < job->chunks) unclaimed += job->chunks - claimed;
  }
  return unclaimed;
}

void ThreadPool::parallel_for(std::size_t n, std::size_t grain,
                              const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t wanted = (n + grain - 1) / grain;
  // At most one chunk per participant: dynamic claiming balances the load,
  // and fewer chunks means less claim/notify overhead.
  const std::size_t chunks = std::min(wanted, threads_.size() + 1);
  run(n, (n + chunks - 1) / chunks, chunks, body);
}

void ThreadPool::parallel_tasks(std::size_t n,
                                const std::function<void(std::size_t)>& task) {
  run(n, 1, n, [&task](std::size_t first, std::size_t last) {
    for (std::size_t i = first; i < last; ++i) task(i);
  });
}

void ThreadPool::run(std::size_t n, std::size_t chunk, std::size_t chunks,
                     const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (threads_.empty() || chunks <= 1) {
    body(0, n);
    return;
  }
  auto job = std::make_shared<Job>();
  job->body = &body;
  job->n = n;
  job->chunks = chunks;
  job->chunk = chunk;
  job->pending.store(job->chunks, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.push_back(job);
  }
  cv_.notify_all();
  while (job->run_one()) {
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find(jobs_.begin(), jobs_.end(), job);
    if (it != jobs_.end()) jobs_.erase(it);
  }
  std::unique_lock<std::mutex> lock(job->mu);
  job->done.wait(lock, [&] {
    return job->pending.load(std::memory_order_acquire) == 0;
  });
}

// ---- process-global compute pool -----------------------------------------

namespace {

std::atomic<int> g_configured_threads{-1};

std::mutex g_pool_mu;
std::shared_ptr<ThreadPool> g_pool;  // guarded by g_pool_mu
int g_pool_threads = 0;              // compute_threads() g_pool was built for

int resolve_threads(int configured) {
  if (configured >= 0) return configured;
  // Resolved once: hardware_concurrency() is a sysconf each call, which is
  // measurable overhead on the per-matmul compute_threads() fast path.
  static const int hw = [] {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
  }();
  return hw;
}

}  // namespace

void set_compute_threads(int threads) {
  g_configured_threads.store(threads, std::memory_order_relaxed);
  std::shared_ptr<ThreadPool> retired;
  {
    std::lock_guard<std::mutex> lock(g_pool_mu);
    retired = std::move(g_pool);  // rebuilt lazily at next compute_pool()
    g_pool_threads = 0;
  }
  // `retired` destroys (joins workers) outside the lock; callers that
  // already grabbed it keep it alive until their loops finish.
}

int compute_threads() {
  return resolve_threads(g_configured_threads.load(std::memory_order_relaxed));
}

std::shared_ptr<ThreadPool> compute_pool() {
  const int threads = compute_threads();
  if (threads <= 1) return nullptr;
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (!g_pool || g_pool_threads != threads) {
    g_pool = std::make_shared<ThreadPool>(static_cast<std::size_t>(threads - 1));
    g_pool_threads = threads;
  }
  return g_pool;
}

void compute_tasks(std::size_t n, const std::function<void(std::size_t)>& task) {
  if (const auto pool = compute_pool(); pool && n > 1) {
    pool->parallel_tasks(n, task);
  } else {
    for (std::size_t i = 0; i < n; ++i) task(i);
  }
}

}  // namespace xt
