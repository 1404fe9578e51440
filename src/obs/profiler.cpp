#include "obs/profiler.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "common/clock.h"
#include "common/thread_util.h"

namespace xt {

namespace prof {
namespace {

thread_local ThreadState* t_state = nullptr;

/// Keeps the thread's shared state alive for the thread's lifetime and
/// flags it dead on exit, so the sampler stops reading a stack that will
/// never move again (its tallies survive until reset()).
struct Holder {
  std::shared_ptr<ThreadState> state;
  ~Holder() {
    if (state) state->alive.store(false, std::memory_order_release);
    t_state = nullptr;
  }
};
thread_local Holder t_holder;

}  // namespace

ThreadState& current_state() {
  if (t_state == nullptr) {
    t_holder.state = Profiler::global().attach_thread(current_thread_name());
    t_state = t_holder.state.get();
  }
  return *t_state;
}

}  // namespace prof

Profiler& Profiler::global() {
  static Profiler* profiler = new Profiler();  // never destroyed
  return *profiler;
}

std::shared_ptr<prof::ThreadState> Profiler::attach_thread(
    const std::string& name) {
  auto state = std::make_shared<prof::ThreadState>();
  std::scoped_lock lock(mu_);
  state->id = next_thread_id_++;
  Entry entry;
  entry.state = state;
  entry.name = name;
  entries_.push_back(std::move(entry));
  return state;
}

void Profiler::start(double hz) {
  stop();
  {
    std::scoped_lock lock(mu_);
    hz_ = std::clamp(hz, 1.0, 10'000.0);
  }
  running_.store(true, std::memory_order_release);
  sampler_ = std::thread([this] { sampler_loop(); });
}

void Profiler::stop() {
  running_.store(false, std::memory_order_release);
  if (sampler_.joinable()) sampler_.join();
}

int Profiler::add_probe(Probe probe, double hz) {
  std::scoped_lock lock(mu_);
  ProbeEntry entry;
  entry.token = next_probe_token_++;
  entry.probe = std::move(probe);
  entry.period_ns = static_cast<std::int64_t>(
      1e9 / std::clamp(hz, 0.1, 1'000.0));
  entry.next_ns = 0;  // due on the first sampler tick
  probes_.push_back(std::move(entry));
  return probes_.back().token;
}

void Profiler::remove_probe(int token) {
  // Probes run under mu_, so once this returns the probe can never fire
  // again — safe to tear down whatever it captured.
  std::scoped_lock lock(mu_);
  probes_.erase(std::remove_if(probes_.begin(), probes_.end(),
                               [token](const ProbeEntry& entry) {
                                 return entry.token == token;
                               }),
                probes_.end());
}

void Profiler::sampler_loop() {
  set_current_thread_name("xt-sampler");
  std::int64_t period_ns = 0;
  {
    std::scoped_lock lock(mu_);
    period_ns = static_cast<std::int64_t>(1e9 / hz_);
  }
  std::int64_t next_ns = now_ns() + period_ns;
  while (running_.load(std::memory_order_acquire)) {
    // Bounded naps keep stop() prompt even at low sampling rates.
    const std::int64_t wake_ns = std::min<std::int64_t>(next_ns, now_ns() + 20'000'000);
    wait_until(wake_ns, Wake::kPlain);
    if (wake_ns < next_ns) continue;
    const std::int64_t now = now_ns();
    next_ns += period_ns;
    if (next_ns < now) next_ns = now + period_ns;  // fell behind: no burst

    std::scoped_lock lock(mu_);
    sample_once();
    for (ProbeEntry& probe : probes_) {
      if (now < probe.next_ns) continue;
      probe.next_ns = now + probe.period_ns;
      probe.probe();
    }
  }
}

void Profiler::sample_once() {
  for (Entry& entry : entries_) {
    prof::ThreadState& state = *entry.state;
    if (!state.alive.load(std::memory_order_acquire)) continue;
    ++entry.samples;
    std::uint32_t depth = state.depth.load(std::memory_order_acquire);
    if (depth == 0) continue;  // between scopes: alive but unattributed
    depth = std::min<std::uint32_t>(depth, prof::kMaxDepth);
    const prof::ThreadState::Slot& slot = state.stack[depth - 1];
    const char* label = slot.label.load(std::memory_order_relaxed);
    const bool idle = slot.idle.load(std::memory_order_relaxed);
    if (label == nullptr) continue;  // push still in flight
    if (!idle) ++entry.busy_samples;
    auto it = std::find_if(
        entry.by_label.begin(), entry.by_label.end(),
        [label](const LabelTally& tally) { return tally.label == label; });
    if (it == entry.by_label.end()) {
      entry.by_label.push_back(LabelTally{label, idle, 1});
    } else {
      ++it->count;
      it->idle = idle;
    }
  }
}

std::vector<ThreadProfile> Profiler::profiles() const {
  std::scoped_lock lock(mu_);
  const double period_ms = hz_ > 0.0 ? 1'000.0 / hz_ : 0.0;

  // Merge entries by thread name: a respawned worker (same name, new
  // thread) continues its predecessor's tallies in the report.
  std::vector<ThreadProfile> out;
  std::unordered_map<std::string, std::size_t> index;
  for (const Entry& entry : entries_) {
    if (entry.samples == 0) continue;
    auto [it, inserted] = index.emplace(entry.name, out.size());
    if (inserted) {
      out.emplace_back();
      out.back().name = entry.name;
    }
    ThreadProfile& profile = out[it->second];
    profile.samples += entry.samples;
    profile.busy_samples += entry.busy_samples;
    for (const LabelTally& tally : entry.by_label) {
      auto scope = std::find_if(profile.scopes.begin(), profile.scopes.end(),
                                [&tally](const ScopeProfile& s) {
                                  return std::strcmp(s.label, tally.label) == 0;
                                });
      if (scope == profile.scopes.end()) {
        profile.scopes.push_back(
            ScopeProfile{tally.label, tally.count,
                         static_cast<double>(tally.count) * period_ms,
                         tally.idle});
      } else {
        scope->samples += tally.count;
        scope->self_ms += static_cast<double>(tally.count) * period_ms;
      }
    }
  }
  for (ThreadProfile& profile : out) {
    if (profile.samples > 0) {
      profile.busy_pct = 100.0 * static_cast<double>(profile.busy_samples) /
                         static_cast<double>(profile.samples);
    }
    std::sort(profile.scopes.begin(), profile.scopes.end(),
              [](const ScopeProfile& a, const ScopeProfile& b) {
                return a.samples > b.samples;
              });
  }
  std::sort(out.begin(), out.end(),
            [](const ThreadProfile& a, const ThreadProfile& b) {
              return a.busy_samples > b.busy_samples;
            });
  return out;
}

void Profiler::reset() {
  std::scoped_lock lock(mu_);
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [](const Entry& entry) {
                                  return !entry.state->alive.load(
                                      std::memory_order_acquire);
                                }),
                 entries_.end());
  for (Entry& entry : entries_) {
    entry.samples = 0;
    entry.busy_samples = 0;
    entry.by_label.clear();
  }
}

}  // namespace xt
