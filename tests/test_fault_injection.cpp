// Failure-injection tests: wire data is untrusted (it crossed a process or
// machine boundary in the real system), and the framework must degrade
// gracefully — drop the bad message, keep the run alive.

#include <gtest/gtest.h>

#include "algo/factory.h"
#include "comm/endpoint.h"
#include "framework/learner_process.h"
#include "framework/runtime.h"

namespace xt {
namespace {

DeploymentConfig tiny_deployment() {
  DeploymentConfig deployment;
  deployment.explorers_per_machine = {1};
  deployment.max_steps_consumed = 200;
  deployment.max_seconds = 30.0;
  return deployment;
}

AlgoSetup tiny_setup() {
  AlgoSetup setup;
  setup.kind = AlgoKind::kImpala;
  setup.env_name = "CartPole";
  setup.impala.hidden = {8};
  setup.impala.fragment_len = 20;
  return setup;
}

TEST(FaultInjection, LearnerSurvivesGarbageRolloutMessage) {
  Broker broker(0);
  const NodeId learner_id_ = learner_id(0);
  const NodeId controller = controller_id(0);
  const NodeId rogue = explorer_id(0, 0);

  LearnerProcess learner(learner_id_, broker,
                         make_algorithm(tiny_setup(), 4, 2), {rogue},
                         controller, tiny_deployment());
  learner.start();
  Endpoint attacker(rogue, broker);

  // A rollout message whose body is not a serialized RolloutBatch.
  ASSERT_TRUE(attacker.send(make_outbound(rogue, {learner_id_}, MsgType::kRollout,
                                          make_payload(Bytes(64, 0xAB)))));

  // Followed by a genuine fragment: the learner must still train on it.
  auto agent = make_agent(tiny_setup(), 4, 2, 0);
  while (!agent->batch_ready()) {
    const std::vector<float> obs = {0.1f, 0.2f, 0.3f, 0.4f};
    const auto action = agent->infer_action(obs);
    agent->handle_env_feedback(obs, action, 1.0f, false, obs);
  }
  auto fragment = std::make_shared<RolloutBatch>(agent->take_batch());
  ASSERT_TRUE(attacker.send(make_deferred_outbound(
      rogue, {learner_id_}, MsgType::kRollout,
      [fragment] { return fragment->serialize(); })));

  for (int i = 0; i < 500 && learner.steps_consumed() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(learner.steps_consumed(), 20u);  // the good fragment, not the bad
  learner.shutdown();
  attacker.stop();
  broker.stop();
}

TEST(FaultInjection, LearnerIgnoresUnknownMessageTypes) {
  Broker broker(0);
  const NodeId learner_id_ = learner_id(0);
  const NodeId rogue = explorer_id(0, 0);
  LearnerProcess learner(learner_id_, broker,
                         make_algorithm(tiny_setup(), 4, 2), {rogue},
                         controller_id(0), tiny_deployment());
  learner.start();
  Endpoint attacker(rogue, broker);

  // Weights/stats/dummy messages at the learner are not rollouts.
  for (MsgType type : {MsgType::kWeights, MsgType::kStats, MsgType::kDummy}) {
    ASSERT_TRUE(attacker.send(
        make_outbound(rogue, {learner_id_}, type, make_payload(Bytes(16, 1)))));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(learner.rollout_messages(), 0u);
  EXPECT_EQ(learner.steps_consumed(), 0u);
  learner.shutdown();
  attacker.stop();
  broker.stop();
}

TEST(FaultInjection, ExplorerIgnoresCorruptWeightsBroadcast) {
  // A full runtime keeps making progress even when a rogue node broadcasts
  // garbage weights at the explorers mid-run.
  AlgoSetup setup = tiny_setup();
  DeploymentConfig deployment = tiny_deployment();
  deployment.max_steps_consumed = 400;
  XingTianRuntime runtime(setup, deployment);

  // The controller endpoint doubles as our rogue: broadcast corrupt weights.
  // (Constructing a parallel endpoint on machine 0 reaches the same broker.)
  std::thread rogue([&] {
    for (int i = 0; i < 5; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      // apply_weights must reject: not a valid Mlp serialization.
    }
  });
  const RunReport report = runtime.run();
  rogue.join();
  EXPECT_GE(report.steps_consumed, 400u);
}

TEST(FaultInjection, AgentRejectsMalformedWeights) {
  auto agent = make_agent(tiny_setup(), 4, 2, 0);
  EXPECT_FALSE(agent->apply_weights(Bytes{1, 2, 3}, 99));
  EXPECT_EQ(agent->weights_version(), 0u);
  // A valid payload with a mismatched architecture is also rejected.
  AlgoSetup wide = tiny_setup();
  wide.impala.hidden = {32};
  auto other = make_algorithm(wide, 4, 2);
  EXPECT_FALSE(agent->apply_weights(other->weights(), 99));
}

TEST(FaultInjection, AlgorithmRejectsMalformedSnapshots) {
  auto algorithm = make_algorithm(tiny_setup(), 4, 2);
  EXPECT_FALSE(algorithm->load_policy_weights(Bytes(100, 0xFF)));
  const auto before = algorithm->weights();
  EXPECT_EQ(algorithm->weights(), before);  // unchanged
}

}  // namespace
}  // namespace xt
