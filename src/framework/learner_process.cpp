#include "framework/learner_process.h"

#include "common/clock.h"
#include "common/log.h"
#include "common/thread_util.h"
#include "nn/matrix.h"
#include "obs/catalog.h"
#include "serial/record.h"

namespace xt {

LearnerProcess::LearnerProcess(NodeId node, Broker& broker,
                               std::unique_ptr<Algorithm> algorithm,
                               std::vector<NodeId> explorers, NodeId controller,
                               const DeploymentConfig& config,
                               std::uint64_t initial_steps)
    : node_(node),
      controller_(controller),
      explorers_(std::move(explorers)),
      endpoint_(node, broker),
      algorithm_(std::move(algorithm)),
      encoder_(config.weight_sync, broker.metrics(), node.machine),
      trace_(broker.trace()),
      metrics_(broker.metrics()),
      wait_hist_(
          stage_histogram(broker.metrics(), StageId::kLearnerWait, {node.machine})),
      train_hist_(
          stage_histogram(broker.metrics(), StageId::kLearnerTrain, {node.machine})),
      keyframe_requests_counter_(broker.metrics().counter(
          metric::xt_weights_keyframe_requests_total, {node.machine})),
      steps_consumed_(initial_steps) {
  endpoint_.set_latency_recorder(&transmission_ms_);
  force_every_broadcast_ = algorithm_->explorers_block_on_weights();
  if (config.supervision.enabled) {
    heartbeat_ = std::make_unique<Heartbeater>(
        endpoint_, node_, controller_, config.supervision.heartbeat_every_s);
  }
  if (!config.checkpoint_path.empty()) {
    checkpointer_ = std::make_unique<Checkpointer>(
        config.checkpoint_path, config.checkpoint_every_versions);
  }
}

LearnerProcess::~LearnerProcess() { shutdown(); }

void LearnerProcess::start() {
  trainer_ = std::thread([this] {
    set_current_thread_name("train-" + node_.name());
    // Attribute this thread's matmul time/flops to the run's registry
    // (train vs. infer kernel split in RunReport / bench_fig7_time).
    nn::bind_kernel_metrics(&metrics_, "learner", node_.machine);
    trainer_loop();
  });
}

void LearnerProcess::request_stop() { stop_.store(true); }

void LearnerProcess::inject_crash() { crashed_.store(true); }

void LearnerProcess::shutdown() {
  request_stop();
  if (trainer_.joinable()) trainer_.join();
  endpoint_.stop();
}

bool LearnerProcess::ingest(Message message) {
  switch (message.header.type) {
    case MsgType::kRollout: {
      rollout_messages_.fetch_add(1, std::memory_order_relaxed);
      rollout_bytes_.fetch_add(message.body->size(), std::memory_order_relaxed);
      auto batch = RolloutBatch::deserialize(*message.body);
      if (!batch) {
        XT_LOG_ERROR << node_.name() << ": corrupt rollout message";
        return true;
      }
      algorithm_->prepare_data(std::move(*batch));
      return true;
    }
    case MsgType::kCommand:
      stop_.store(true);
      return false;
    case MsgType::kWeightsAck:
      // tag = the version this explorer applied; feeds delta-base selection.
      encoder_.note_ack(message.header.src.name(), message.header.tag);
      return true;
    case MsgType::kWeightsReq:
      // The explorer hit a decode error or a base-version miss (DESIGN.md
      // §11 fallback protocol), or it is a respawned on-policy explorer
      // that holds no weights yet: restart its chain from a standalone frame.
      keyframe_requests_counter_.inc();
      send_keyframe(message.header.src);
      return true;
    default:
      return true;
  }
}

void LearnerProcess::send_keyframe(const NodeId& dst) {
  const std::uint32_t version = algorithm_->weights_version();
  auto frame = encoder_.encode_keyframe(algorithm_->weights(), version);
  if (!frame) return;
  (void)endpoint_.send(
      make_outbound(node_, {dst}, MsgType::kWeights, std::move(*frame), version));
}

void LearnerProcess::broadcast_weights(const std::vector<std::uint32_t>& respond_to,
                                       bool force) {
  std::vector<NodeId> dsts;
  if (respond_to.empty()) {
    dsts = explorers_;
  } else {
    dsts.reserve(respond_to.size());
    for (std::uint32_t idx : respond_to) {
      if (idx < explorers_.size()) dsts.push_back(explorers_[idx]);
    }
  }
  if (dsts.empty()) return;
  // The trainer produces the message body (serialized parameters, run
  // through the configured weight codec); the sender thread and router
  // handle everything downstream.
  Bytes weights = algorithm_->weights();
  const std::uint32_t version = algorithm_->weights_version();
  std::vector<std::string> dst_keys;
  dst_keys.reserve(dsts.size());
  for (const NodeId& dst : dsts) dst_keys.push_back(dst.name());
  auto frame = encoder_.encode(weights, version, dst_keys,
                                force || force_every_broadcast_);
  // Lazy broadcast: the update norm was below threshold, nothing shipped.
  if (!frame) return;
  (void)endpoint_.send(make_outbound(node_, std::move(dsts), MsgType::kWeights,
                                     std::move(*frame), version));
  broadcasts_.fetch_add(1, std::memory_order_relaxed);
}

void LearnerProcess::trainer_loop() {
  const Stopwatch run_clock;

  // Announce the starting parameters so explorers generate rollouts against
  // the learner's actual initial policy. Essential when the learner was
  // seeded from a snapshot (PBT population cloning, checkpoint restore):
  // without it, on-policy algorithms would discard every fragment produced
  // under the explorers' unseeded weights and never train.
  broadcast_weights({}, /*force=*/true);
  last_broadcast_version_ = algorithm_->weights_version();

  while (!stop_.load()) {
    if (crashed_.load()) return;  // simulated kill: vanish mid-stride
    if (heartbeat_) heartbeat_->tick();
    // Block until the algorithm has enough data. This is the "actual wait"
    // of paper Fig. 8(b)/(c): with the asynchronous channel the data is
    // usually already staged, so the wait is far below the transmission
    // latency of any single message.
    Stage wait(StageId::kLearnerWait, &wait_hist_, trace_, 0, node_.machine);
    while (!algorithm_->ready_to_train() && !stop_.load() && !crashed_.load()) {
      if (heartbeat_) heartbeat_->tick();
      auto msg = endpoint_.receive_for(std::chrono::milliseconds(20));
      if (msg && !ingest(std::move(*msg))) break;
    }
    if (stop_.load() || crashed_.load()) {
      wait.cancel();
      break;
    }
    wait_ms_.add(wait.finish());

    // Aggressively drain everything else that has already arrived.
    while (auto msg = endpoint_.try_receive()) {
      if (!ingest(std::move(*msg))) break;
    }
    if (stop_.load()) break;

    Algorithm::TrainResult result;
    {
      const Stage train(StageId::kLearnerTrain, &train_hist_, trace_, 0, node_.machine);
      result = algorithm_->train();
    }

    steps_consumed_.fetch_add(result.steps_consumed, std::memory_order_relaxed);
    sessions_.fetch_add(1, std::memory_order_relaxed);
    throughput_.add(run_clock.elapsed_s(),
                    static_cast<double>(result.steps_consumed));

    if (!result.respond_to.empty()) {
      // IMPALA-style: reply with fresh weights exactly to the explorers
      // whose rollouts were consumed.
      broadcast_weights(result.respond_to);
    } else if (algorithm_->weights_version() != last_broadcast_version_) {
      if (++trains_since_broadcast_ >= algorithm_->broadcast_interval()) {
        broadcast_weights({});
        last_broadcast_version_ = algorithm_->weights_version();
        trains_since_broadcast_ = 0;
      }
    }

    if (checkpointer_ != nullptr &&
        checkpointer_->maybe_save(algorithm_->weights(),
                                  algorithm_->weights_version(),
                                  steps_consumed_.load())) {
      checkpoints_.fetch_add(1, std::memory_order_relaxed);
    }

    if (sessions_.load() % 50 == 0) {
      StatsRecord record;
      record.source = node_.name();
      record.values["steps_consumed"] = static_cast<double>(steps_consumed_.load());
      record.values["sessions"] = sessions_.load();
      (void)endpoint_.send(make_outbound(node_, {controller_}, MsgType::kStats,
                                         make_payload(record.serialize())));
    }
  }
}

}  // namespace xt
