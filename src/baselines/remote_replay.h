#pragma once

#include <future>
#include <memory>
#include <thread>

#include "algo/dqn.h"
#include "common/blocking_queue.h"
#include "obs/metrics.h"
#include "replay/replay_buffer.h"

namespace xt::baselines {

/// Serialization helpers for transitions crossing the replay-actor RPC.
[[nodiscard]] Bytes serialize_transitions(const std::vector<Transition>& transitions);
[[nodiscard]] std::vector<Transition> deserialize_transitions(const Bytes& data);

/// The replay buffer hosted as its own logical process behind RPC — how
/// RLLib runs DQN (paper Fig. 9). Every insert and every sampled batch is
/// serialized, dispatched, and copied across the process boundary; the
/// contrast with XingTian's learner-local replay is the Fig. 9 latency gap.
class RemoteReplayActor {
 public:
  RemoteReplayActor(std::size_t capacity, std::uint64_t seed,
                    std::int64_t dispatch_ns);
  ~RemoteReplayActor();

  RemoteReplayActor(const RemoteReplayActor&) = delete;
  RemoteReplayActor& operator=(const RemoteReplayActor&) = delete;

  void stop();

  /// Fire-and-forget insert RPC (serialization paid by the caller).
  void insert(const std::vector<Transition>& transitions);

  /// Blocking sample RPC: dispatch + actor-side serialize + response copy.
  [[nodiscard]] std::vector<Transition> sample(std::size_t n);

  [[nodiscard]] std::size_t size() const { return replay_.size(); }

  /// Per-sample() round-trip durations (the "RLLib Sample & Trans." series
  /// of paper Fig. 9(b)).
  [[nodiscard]] const Histogram& sample_latency_ms() const {
    return sample_latency_ms_;
  }

 private:
  struct Request {
    enum class Kind { kInsert, kSample } kind;
    Bytes payload;
    std::size_t count = 0;
    std::promise<Bytes> response;  // kSample
  };

  void service_loop();

  UniformReplay replay_;
  const std::int64_t dispatch_ns_;
  BlockingQueue<Request> requests_;
  Histogram sample_latency_ms_;
  std::thread service_;
};

/// DQN with the replay relocated into the remote actor: identical training
/// math (inherited from DqnAlgorithm), different communication placement.
class RemoteReplayDqn final : public DqnAlgorithm {
 public:
  RemoteReplayDqn(const DqnConfig& config, std::size_t obs_dim,
                  std::int32_t n_actions, std::uint64_t seed,
                  RemoteReplayActor& actor);

  [[nodiscard]] std::size_t replay_size() const override { return actor_.size(); }

 protected:
  void store_transition(Transition transition) override;
  [[nodiscard]] std::vector<Transition> fetch_batch(std::size_t n) override;

 private:
  RemoteReplayActor& actor_;
  std::vector<Transition> pending_;
};

}  // namespace xt::baselines
