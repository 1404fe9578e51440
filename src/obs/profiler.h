#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace xt {

// ---------------------------------------------------------------------------
// Always-on sampling profiler (DESIGN.md "Profiling & bottleneck
// attribution").
//
// Every long-lived thread of the stack (broker routers, pipe transmitters,
// retransmitters, endpoint sender/receivers, explorer/learner workhorses,
// compute-pool workers) annotates its work with ProfScope markers. A marker
// is a push/pop on a small thread-local stack of string-literal labels —
// a handful of relaxed/release atomic stores, cheap enough to leave enabled
// unconditionally. One background sampler thread walks the registered
// stacks at a configurable frequency and tallies, per thread, how often it
// was found inside each scope. From those counts fall out per-thread busy%
// (samples inside a non-idle scope over all samples) and per-scope
// self-time (innermost-scope samples x sampling period) — the "top" view
// that tells a run which thread and which stage bounds it.
//
// Memory ordering: only the owning thread writes its stack (label slot
// store, then a release store of the new depth); the sampler does an
// acquire load of the depth and reads slots below it. Labels are string
// literals, so a racy slot read can at worst observe a stale-but-valid
// pointer — never a torn or dangling one. The design keeps both sides
// lock-free so a stalled sampler can never block a workhorse.

namespace prof {

/// Deepest nesting the sampler can attribute; pushes beyond it are counted
/// as their enclosing scope (the push becomes a no-op, pop matches it).
constexpr std::size_t kMaxDepth = 16;

/// One thread's annotated-scope stack. Owned via shared_ptr by both the
/// profiler registry and the thread itself, so neither teardown order races
/// the other.
struct ThreadState {
  struct Slot {
    std::atomic<const char*> label{nullptr};
    std::atomic<bool> idle{false};
  };
  std::array<Slot, kMaxDepth> stack;
  std::atomic<std::uint32_t> depth{0};
  std::atomic<bool> alive{true};
  std::uint64_t id = 0;  ///< registry key, assigned at attach
};

/// The calling thread's state, attaching it to the profiler registry (under
/// its current_thread_name()) on first use.
[[nodiscard]] ThreadState& current_state();

}  // namespace prof

/// Per-scope sample tally for one thread (or one merged thread name).
struct ScopeProfile {
  const char* label = "";
  std::uint64_t samples = 0;  ///< times the sampler caught this scope innermost
  double self_ms = 0.0;       ///< samples x sampling period
  bool idle = false;          ///< scope marks blocking/waiting time
};

/// Sampling summary for one thread name (threads sharing a name — e.g. a
/// respawned worker — are merged).
struct ThreadProfile {
  std::string name;
  std::uint64_t samples = 0;      ///< total times this thread was sampled
  std::uint64_t busy_samples = 0; ///< caught inside a non-idle scope
  double busy_pct = 0.0;          ///< 100 * busy_samples / samples
  std::vector<ScopeProfile> scopes;  ///< descending by samples
};

/// Process-wide sampling profiler. Scope annotation (ProfScope) is always
/// on and nearly free; the sampler thread and the saturation probes run
/// only between start() and stop(). Threads auto-register on their first
/// ProfScope, so components never need a handle to the profiler.
class Profiler {
 public:
  [[nodiscard]] static Profiler& global();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Start the sampler at `hz` samples/second (clamped to [1, 10'000]).
  /// Idempotent; a second start() with a different rate restarts the
  /// sampler. Tallies accumulate across start/stop cycles until reset().
  void start(double hz);
  void stop();

  /// Current tallies, merged by thread name, scopes sorted by sample count.
  /// Threads never caught in any scope still appear with samples > 0 (their
  /// busy% is honest: 0).
  [[nodiscard]] std::vector<ThreadProfile> profiles() const;

  /// Drop all tallies and forget dead threads. Live threads stay attached.
  void reset();

  /// Saturation probes: callbacks the sampler invokes at `hz` (typically
  /// much lower than the scope-sampling rate) to read queue depths, pool
  /// backlogs and link utilization into gauges. Returns a token for
  /// remove_probe. Probes run on the sampler thread; they must not block.
  using Probe = std::function<void()>;
  int add_probe(Probe probe, double hz);
  void remove_probe(int token);

  // Internal: attach the calling thread's state (see prof::current_state).
  [[nodiscard]] std::shared_ptr<prof::ThreadState> attach_thread(
      const std::string& name);

 private:
  Profiler() = default;
  ~Profiler() = default;  // global() never destroys (threads may outlive exit)

  /// Tally per innermost label; labels are literals so pointer identity
  /// keys are stable. (Two literals with equal text in different TUs can
  /// occupy distinct keys; profiles() merges by text.)
  struct LabelTally {
    const char* label = "";
    bool idle = false;
    std::uint64_t count = 0;
  };

  struct Entry {
    std::shared_ptr<prof::ThreadState> state;
    std::string name;
    std::uint64_t samples = 0;
    std::uint64_t busy_samples = 0;
    std::vector<LabelTally> by_label;
  };

  struct ProbeEntry {
    int token = 0;
    Probe probe;
    std::int64_t period_ns = 0;
    std::int64_t next_ns = 0;
  };

  void sampler_loop();
  void sample_once();

  mutable std::mutex mu_;  ///< registry + tallies + probes + sampler state
  std::vector<Entry> entries_;
  std::vector<ProbeEntry> probes_;
  std::uint64_t next_thread_id_ = 1;
  int next_probe_token_ = 1;
  double hz_ = 0.0;
  std::atomic<bool> running_{false};
  std::thread sampler_;
};

/// RAII scope annotation. `label` MUST be a string literal (stored by
/// pointer, read by the sampler with no lifetime tracking). `idle` marks
/// blocking scopes (queue pops, weight waits) that should not count toward
/// the thread's busy%.
class ProfScope {
 public:
  explicit ProfScope(const char* label, bool idle = false)
      : state_(&prof::current_state()) {
    const std::uint32_t depth = state_->depth.load(std::memory_order_relaxed);
    if (depth >= prof::kMaxDepth) {
      state_ = nullptr;  // too deep: attribute to the enclosing scope
      return;
    }
    prof::ThreadState::Slot& slot = state_->stack[depth];
    slot.label.store(label, std::memory_order_relaxed);
    slot.idle.store(idle, std::memory_order_relaxed);
    state_->depth.store(depth + 1, std::memory_order_release);
  }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

  ~ProfScope() {
    if (state_ == nullptr) return;
    const std::uint32_t depth = state_->depth.load(std::memory_order_relaxed);
    if (depth > 0) state_->depth.store(depth - 1, std::memory_order_release);
  }

 private:
  prof::ThreadState* state_;
};

}  // namespace xt
