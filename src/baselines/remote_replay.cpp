#include "baselines/remote_replay.h"

#include <cassert>

#include "common/clock.h"
#include "common/thread_util.h"
#include "serial/binio.h"

namespace xt::baselines {

Bytes serialize_transitions(const std::vector<Transition>& transitions) {
  return BinWriter::exact([&](BinWriter& w) {
    w.u64(transitions.size());
    for (const Transition& t : transitions) {
      w.f32_vec(t.observation);
      w.i32(t.action);
      w.f32(t.reward);
      w.f32_vec(t.next_observation);
      w.boolean(t.done);
      w.bytes(t.frame);
    }
  });
}

std::vector<Transition> deserialize_transitions(const Bytes& data) {
  BinReader r(data);
  std::vector<Transition> out;
  auto n = r.u64();
  if (!n) return out;
  // Never trust a wire length for allocation sizing; grow as records parse.
  out.reserve(std::min<std::uint64_t>(*n, 4096));
  for (std::uint64_t i = 0; i < *n; ++i) {
    auto obs = r.f32_vec();
    auto action = r.i32();
    auto reward = r.f32();
    auto next_obs = r.f32_vec();
    auto done = r.boolean();
    auto frame = r.bytes();
    if (!obs || !action || !reward || !next_obs || !done || !frame) return {};
    out.push_back(Transition{std::move(*obs), *action, *reward,
                             std::move(*next_obs), *done, std::move(*frame)});
  }
  return out;
}

RemoteReplayActor::RemoteReplayActor(std::size_t capacity, std::uint64_t seed,
                                     std::int64_t dispatch_ns)
    : replay_(capacity, seed), dispatch_ns_(dispatch_ns) {
  service_ = std::thread([this] {
    set_current_thread_name("replay-actor");
    service_loop();
  });
}

RemoteReplayActor::~RemoteReplayActor() { stop(); }

void RemoteReplayActor::stop() {
  requests_.close();
  if (service_.joinable()) service_.join();
}

void RemoteReplayActor::insert(const std::vector<Transition>& transitions) {
  Request request;
  request.kind = Request::Kind::kInsert;
  request.payload = serialize_transitions(transitions);
  wait_until(now_ns() + dispatch_ns_, Wake::kPrecise);
  (void)requests_.push(std::move(request));
}

std::vector<Transition> RemoteReplayActor::sample(std::size_t n) {
  const Stopwatch clock;
  Request request;
  request.kind = Request::Kind::kSample;
  request.count = n;
  std::future<Bytes> response = request.response.get_future();
  wait_until(now_ns() + dispatch_ns_, Wake::kPrecise);
  if (!requests_.push(std::move(request))) return {};
  const Bytes data = response.get();
  wait_until(now_ns() + dispatch_ns_, Wake::kPrecise);  // response dispatch
  auto result = deserialize_transitions(data);
  sample_latency_ms_.observe(clock.elapsed_ms());
  return result;
}

void RemoteReplayActor::service_loop() {
  while (auto request = requests_.pop()) {
    switch (request->kind) {
      case Request::Kind::kInsert:
        for (Transition& t : deserialize_transitions(request->payload)) {
          replay_.add(std::move(t));
        }
        break;
      case Request::Kind::kSample:
        request->response.set_value(
            serialize_transitions(replay_.sample(request->count)));
        break;
    }
  }
}

RemoteReplayDqn::RemoteReplayDqn(const DqnConfig& config, std::size_t obs_dim,
                                 std::int32_t n_actions, std::uint64_t seed,
                                 RemoteReplayActor& actor)
    : DqnAlgorithm(config, obs_dim, n_actions, seed), actor_(actor) {
  assert(!config.prioritized && "remote replay models the uniform actor");
}

void RemoteReplayDqn::store_transition(Transition transition) {
  pending_.push_back(std::move(transition));
  // RLLib flushes worker batches to the replay actor per received message.
  if (pending_.size() >= 4) {
    actor_.insert(pending_);
    pending_.clear();
  }
}

std::vector<Transition> RemoteReplayDqn::fetch_batch(std::size_t n) {
  return actor_.sample(n);
}

}  // namespace xt::baselines
