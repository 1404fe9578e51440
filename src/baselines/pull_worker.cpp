#include "baselines/pull_worker.h"

#include "common/thread_util.h"

namespace xt::baselines {

void ReturnsCollector::add(double episode_return) {
  std::scoped_lock lock(mu_);
  returns_.push_back(episode_return);
  ++episodes_;
  while (returns_.size() > 200) returns_.pop_front();
}

double ReturnsCollector::recent_mean(std::size_t window) const {
  std::scoped_lock lock(mu_);
  if (returns_.empty()) return 0.0;
  const std::size_t n = std::min(window, returns_.size());
  double sum = 0.0;
  for (std::size_t i = returns_.size() - n; i < returns_.size(); ++i) {
    sum += returns_[i];
  }
  return sum / static_cast<double>(n);
}

std::uint64_t ReturnsCollector::episodes() const {
  std::scoped_lock lock(mu_);
  return episodes_;
}

PullWorker::PullWorker(std::uint16_t machine, std::uint32_t index,
                       std::unique_ptr<Environment> env,
                       std::unique_ptr<Agent> agent, RpcTransport& transport,
                       ReturnsCollector* returns)
    : machine_(machine),
      index_(index),
      transport_(transport),
      returns_(returns),
      env_(std::move(env)),
      agent_(std::move(agent)),
      episode_seed_(index * 1'000'003ULL + 17) {
  service_ = std::thread([this] {
    set_current_thread_name("pullw-" + std::to_string(index_));
    service_loop();
  });
}

PullWorker::~PullWorker() { stop(); }

void PullWorker::stop() {
  requests_.close();
  if (service_.joinable()) service_.join();
}

PullWorker::Ticket PullWorker::sample_async() {
  Request request;
  request.kind = Request::Kind::kSample;
  Ticket ticket(request.reply.get_future());
  if (!requests_.push(std::move(request))) {
    std::promise<Bytes> empty;  // stopped: the dropped request broke its promise
    empty.set_value({});
    ticket = Ticket(empty.get_future());
  }
  return ticket;
}

Bytes PullWorker::sample_get(Ticket ticket) {
  // The pull: bytes only cross the process/machine boundary now, on the
  // caller's (driver's) thread.
  return transport_.pull(machine_, ticket.result_.get());
}

void PullWorker::set_weights(const Bytes& weights, std::uint32_t version) {
  transport_.push(machine_, weights);
  Request request;
  request.kind = Request::Kind::kSetWeights;
  request.weights = weights;  // the worker-side landing copy
  request.version = version;
  std::future<Bytes> applied = request.reply.get_future();
  if (requests_.push(std::move(request))) applied.wait();
}

void PullWorker::service_loop() {
  while (auto request = requests_.pop()) {
    switch (request->kind) {
      case Request::Kind::kSample:
        request->reply.set_value(run_sample());
        break;
      case Request::Kind::kSetWeights:
        (void)agent_->apply_weights(request->weights, request->version);
        request->reply.set_value({});
        break;
    }
  }
}

Bytes PullWorker::run_sample() {
  if (!episode_live_) {
    obs_ = env_->reset(episode_seed_++);
    episode_return_ = 0.0;
    episode_live_ = true;
  }
  while (!agent_->batch_ready()) {
    const std::int32_t action = agent_->infer_action(obs_);
    const StepResult result = env_->step(action);
    agent_->handle_env_feedback(obs_, action, result.reward, result.done,
                                result.observation);
    env_steps_.fetch_add(1, std::memory_order_relaxed);
    episode_return_ += result.reward;
    if (result.done) {
      if (returns_ != nullptr) returns_->add(episode_return_);
      obs_ = env_->reset(episode_seed_++);
      episode_return_ = 0.0;
    } else {
      obs_ = result.observation;
    }
  }
  Bytes data = agent_->take_batch().serialize();
  // Worker-side copy into its object store (parallel across workers).
  transport_.pace_ipc(data.size());
  return data;
}

}  // namespace xt::baselines
