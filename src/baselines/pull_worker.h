#pragma once

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "algo/interfaces.h"
#include "baselines/rpc.h"
#include "common/blocking_queue.h"
#include "common/stats.h"
#include "envs/environment.h"

namespace xt::baselines {

/// Episode-return sink shared by all workers of a baseline run.
class ReturnsCollector {
 public:
  void add(double episode_return);
  [[nodiscard]] double recent_mean(std::size_t window) const;
  [[nodiscard]] std::uint64_t episodes() const;

 private:
  mutable std::mutex mu_;
  std::deque<double> returns_;
  std::uint64_t episodes_ = 0;
};

/// A rollout worker in the pull-based baseline framework (the RLLib model
/// of paper Section 2.2): it computes *only when asked*. The driver submits
/// a sample task; the worker interacts with the environment until a
/// fragment is ready and parks the serialized result. The bytes do not move
/// until the driver pulls them — and that pull runs synchronously on the
/// driver's thread, which is exactly the serialization of communication and
/// computation the paper criticizes.
class PullWorker {
 public:
  /// A parked sample result awaiting the driver's pull.
  class Ticket {
   public:
    [[nodiscard]] bool ready() const {
      return result_.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    }

   private:
    friend class PullWorker;
    explicit Ticket(std::future<Bytes> result) : result_(std::move(result)) {}
    std::future<Bytes> result_;
  };

  PullWorker(std::uint16_t machine, std::uint32_t index,
             std::unique_ptr<Environment> env, std::unique_ptr<Agent> agent,
             RpcTransport& transport, ReturnsCollector* returns);
  ~PullWorker();

  PullWorker(const PullWorker&) = delete;
  PullWorker& operator=(const PullWorker&) = delete;

  /// Submit a sample task (async). The worker produces one rollout fragment;
  /// a stopped worker hands back an empty one at once.
  [[nodiscard]] Ticket sample_async();

  /// Pull a completed (or pending) sample: blocks until the compute finishes,
  /// then pays the full transfer cost on the calling thread. Returns the
  /// serialized RolloutBatch.
  [[nodiscard]] Bytes sample_get(Ticket ticket);

  /// Blocking weights update: pushes the bytes and waits for the apply ack.
  void set_weights(const Bytes& weights, std::uint32_t version);

  void stop();

  [[nodiscard]] std::uint32_t index() const { return index_; }
  [[nodiscard]] std::uint16_t machine() const { return machine_; }
  [[nodiscard]] std::uint64_t env_steps() const { return env_steps_.load(); }

 private:
  struct Request {
    enum class Kind { kSample, kSetWeights } kind;
    Bytes weights;               // kSetWeights
    std::uint32_t version = 0;   // kSetWeights
    std::promise<Bytes> reply;   // the sample, or an empty apply ack
  };

  void service_loop();
  [[nodiscard]] Bytes run_sample();

  const std::uint16_t machine_;
  const std::uint32_t index_;
  RpcTransport& transport_;
  ReturnsCollector* returns_;

  std::unique_ptr<Environment> env_;
  std::unique_ptr<Agent> agent_;
  std::vector<float> obs_;
  std::uint64_t episode_seed_;
  double episode_return_ = 0.0;
  bool episode_live_ = false;

  BlockingQueue<Request> requests_;
  std::atomic<std::uint64_t> env_steps_{0};
  std::thread service_;
};

}  // namespace xt::baselines
