#include "framework/explorer_process.h"

#include "common/clock.h"
#include "common/log.h"
#include "common/thread_util.h"
#include "nn/matrix.h"
#include "obs/catalog.h"
#include "obs/profiler.h"
#include "serial/record.h"

namespace xt {

ExplorerProcess::ExplorerProcess(NodeId node, std::uint32_t explorer_index,
                                 Broker& broker, std::unique_ptr<Environment> env,
                                 std::unique_ptr<Agent> agent, NodeId learner,
                                 NodeId controller, const DeploymentConfig& config,
                                 bool respawned)
    : node_(node),
      explorer_index_(explorer_index),
      learner_(learner),
      controller_(controller),
      stats_every_episodes_(config.stats_every_episodes),
      respawned_(respawned),
      endpoint_(node, broker, config.explorer_send_capacity),
      env_(std::move(env)),
      agent_(std::move(agent)),
      trace_(broker.trace()),
      rollout_hist_(
          stage_histogram(broker.metrics(), StageId::kExplorerRollout, {node.machine})),
      wait_weights_hist_(stage_histogram(
          broker.metrics(), StageId::kExplorerWaitWeights, {node.machine})),
      env_steps_counter_(broker.metrics().counter(metric::xt_explorer_env_steps_total,
                                                  {node.machine})),
      batches_counter_(
          broker.metrics().counter(metric::xt_explorer_batches_total, {node.machine})),
      weights_applied_counter_(
          broker.metrics().counter(metric::xt_weights_applied_total, {node.machine})),
      weights_nack_counter_(
          broker.metrics().counter(metric::xt_weights_nacks_total, {node.machine})),
      broadcast_ms_hist_(
          broker.metrics().histogram(metric::xt_weights_broadcast_ms, {node.machine})),
      metrics_(broker.metrics()),
      decoder_(broker.metrics(), node.machine) {
  send_weight_acks_ = weight_codec_uses_base(config.weight_sync.codec);
  if (config.supervision.enabled) {
    heartbeat_ = std::make_unique<Heartbeater>(
        endpoint_, node_, controller_, config.supervision.heartbeat_every_s);
  }
  worker_ = std::thread([this] {
    set_current_thread_name("work-" + node_.name());
    // Attribute this thread's matmul time/flops (rollout inference) to the
    // run's registry, split from the learner's by the role label.
    nn::bind_kernel_metrics(&metrics_, "explorer", node_.machine);
    worker_loop();
  });
}

ExplorerProcess::~ExplorerProcess() { shutdown(); }

void ExplorerProcess::request_stop() { stop_.store(true); }

void ExplorerProcess::inject_crash() { crashed_.store(true); }

void ExplorerProcess::shutdown() {
  request_stop();
  if (worker_.joinable()) worker_.join();
  endpoint_.stop();
}

void ExplorerProcess::drain_inbox() {
  // Apply only the newest weights if several broadcasts queued up.
  while (auto msg = endpoint_.try_receive()) {
    switch (msg->header.type) {
      case MsgType::kWeights:
        handle_weights(*msg);
        break;
      case MsgType::kCommand:
        stop_.store(true);
        break;
      default:
        break;
    }
  }
}

void ExplorerProcess::handle_weights(const Message& msg) {
  const auto result = decoder_.apply(msg.body);
  switch (result.outcome) {
    case WeightDecoderSession::Outcome::kApplied:
      if (agent_->apply_weights(*result.fp32, result.version)) {
        weights_applied_counter_.inc();
        if (msg.header.created_ns > 0) {
          broadcast_ms_hist_.observe(ns_to_ms(now_ns() - msg.header.created_ns));
        }
        if (send_weight_acks_) {
          (void)endpoint_.send(make_outbound(node_, {learner_}, MsgType::kWeightsAck,
                                             empty_payload(), result.version));
        }
      }
      break;
    case WeightDecoderSession::Outcome::kStale:
      break;  // an older broadcast overtaken in flight; drop silently
    case WeightDecoderSession::Outcome::kNeedKeyframe:
    case WeightDecoderSession::Outcome::kCorrupt:
      request_keyframe(result.version != 0 ? result.version : msg.header.tag);
      break;
  }
}

void ExplorerProcess::request_keyframe(std::uint32_t version) {
  if (nacked_any_ && version == last_nack_version_) return;
  nacked_any_ = true;
  last_nack_version_ = version;
  weights_nack_counter_.inc();
  // tag carries the newest version we hold — diagnostic only; the learner
  // always answers with a standalone frame of its current weights.
  (void)endpoint_.send(make_outbound(node_, {learner_}, MsgType::kWeightsReq,
                                     empty_payload(), decoder_.version()));
}

void ExplorerProcess::ship_batch() {
  RolloutBatch batch = agent_->take_batch();
  const std::uint32_t sent_version = batch.weights_version;
  batches_counter_.inc();

  // Deferred producer: serialization runs on the sender thread, so the
  // rollout worker goes straight back to interacting with the environment.
  auto shared = std::make_shared<RolloutBatch>(std::move(batch));
  Outbound out = make_deferred_outbound(
      node_, {learner_}, MsgType::kRollout,
      [shared] { return shared->serialize(); }, sent_version);

  // The rollout span shares the outgoing message's trace id, so the
  // environment-interaction phase lines up with the comm lifecycle of the
  // batch it produced.
  if (rollout_start_ns_ > 0) {
    Stage::since(rollout_start_ns_, StageId::kExplorerRollout, &rollout_hist_, trace_,
                 out.header.trace_id(), node_.machine);
  }
  // Backpressure gate: with a bounded overload config this send blocks
  // while the fabric sits above its high watermark (the explorer pauses
  // rollout production instead of queueing unbounded bodies). Keep
  // heartbeating from the wait loop so the supervisor sees a slowed
  // explorer, not a dead one.
  (void)endpoint_.send(std::move(out), [this] {
    if (heartbeat_) heartbeat_->tick();
  });

  // On-policy (PPO): block this explorer until the learner's next broadcast.
  if (agent_->requires_fresh_weights()) await_weights_newer_than(sent_version);
  rollout_start_ns_ = now_ns();
}

void ExplorerProcess::await_weights_newer_than(std::uint32_t version) {
  // Other explorers keep exploring; their transmissions overlap with our
  // waiting (Section 3.2.1).
  const Stage wait(StageId::kExplorerWaitWeights, &wait_weights_hist_, trace_, 0,
                   node_.machine);
  while (!stop_.load() && !crashed_.load() && agent_->weights_version() <= version) {
    if (heartbeat_) heartbeat_->tick();
    auto msg = endpoint_.receive_for(std::chrono::milliseconds(20));
    if (!msg) continue;
    if (msg->header.type == MsgType::kWeights) {
      handle_weights(*msg);
    } else if (msg->header.type == MsgType::kCommand) {
      stop_.store(true);
    }
  }
}

void ExplorerProcess::report_episode(double episode_return,
                                     std::uint64_t episode_steps) {
  ++episodes_;
  if (stats_every_episodes_ <= 0 ||
      episodes_ % static_cast<std::uint64_t>(stats_every_episodes_) != 0) {
    return;
  }
  StatsRecord record;
  record.source = node_.name();
  record.values["episode_return"] = episode_return;
  record.values["episode_steps"] = static_cast<double>(episode_steps);
  record.values["env_steps"] = static_cast<double>(env_steps_);
  (void)endpoint_.send(make_outbound(node_, {controller_}, MsgType::kStats,
                                     make_payload(record.serialize())));
}

void ExplorerProcess::worker_loop() {
  if (agent_->requires_fresh_weights()) {
    // On-policy: take no step under the agent's own initial weights, or the
    // first fragment trains a session one version behind the learner. The
    // learner's start-up broadcast reaches every explorer built with the
    // runtime; a respawned one missed it and asks for the current weights.
    if (respawned_) request_keyframe(agent_->weights_version());
    await_weights_newer_than(agent_->weights_version());
  }
  std::uint64_t episode_seed = explorer_index_ * 1'000'003ULL + 17;
  rollout_start_ns_ = now_ns();
  std::vector<float> obs = env_->reset(episode_seed++);
  double episode_return = 0.0;
  std::uint64_t episode_steps = 0;

  while (!stop_.load()) {
    ProfScope prof("explore");
    if (crashed_.load()) return;  // simulated kill: vanish mid-stride
    if (heartbeat_) heartbeat_->tick();
    drain_inbox();

    const std::int32_t action = agent_->infer_action(obs);
    const StepResult result = env_->step(action);
    agent_->handle_env_feedback(obs, action, result.reward, result.done,
                                result.observation);
    ++env_steps_;
    env_steps_counter_.inc();
    episode_return += result.reward;
    ++episode_steps;

    if (result.done) {
      report_episode(episode_return, episode_steps);
      episode_return = 0.0;
      episode_steps = 0;
      obs = env_->reset(episode_seed++);
    } else {
      obs = result.observation;
    }

    if (agent_->batch_ready()) ship_batch();
  }
}

}  // namespace xt
