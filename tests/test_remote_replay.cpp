#include "baselines/remote_replay.h"

#include <gtest/gtest.h>

namespace xt::baselines {
namespace {

Transition make_transition(int tag, std::size_t frame_bytes = 0) {
  Transition t;
  t.observation = {static_cast<float>(tag), 0.0f};
  t.action = tag % 3;
  t.reward = static_cast<float>(tag) * 0.5f;
  t.next_observation = {static_cast<float>(tag + 1), 0.0f};
  t.done = tag % 5 == 0;
  if (frame_bytes > 0) fill_frame(t.frame, frame_bytes, tag);
  return t;
}

TEST(TransitionSerialization, RoundTrip) {
  std::vector<Transition> transitions;
  for (int i = 0; i < 10; ++i) transitions.push_back(make_transition(i, 64));
  const Bytes body = serialize_transitions(transitions);
  EXPECT_EQ(body.capacity(), body.size());  // allocated once, at its size
  const auto restored = deserialize_transitions(body);
  ASSERT_EQ(restored.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(restored[i].observation, transitions[i].observation);
    EXPECT_EQ(restored[i].action, transitions[i].action);
    EXPECT_FLOAT_EQ(restored[i].reward, transitions[i].reward);
    EXPECT_EQ(restored[i].next_observation, transitions[i].next_observation);
    EXPECT_EQ(restored[i].done, transitions[i].done);
    EXPECT_EQ(restored[i].frame, transitions[i].frame);
  }
}

TEST(TransitionSerialization, EmptyAndGarbage) {
  EXPECT_TRUE(deserialize_transitions(serialize_transitions({})).empty());
  EXPECT_TRUE(deserialize_transitions(Bytes(33, 0xEE)).empty());
}

TEST(RemoteReplayActor, InsertAndSample) {
  RemoteReplayActor actor(128, 1, /*dispatch_ns=*/0);
  std::vector<Transition> batch;
  for (int i = 0; i < 20; ++i) batch.push_back(make_transition(i));
  actor.insert(batch);
  // Inserts are fire-and-forget; sample() serializes behind them in the
  // request queue, so by the time it answers the data is in.
  const auto sample = actor.sample(8);
  EXPECT_EQ(sample.size(), 8u);
  EXPECT_EQ(actor.size(), 20u);
}

TEST(RemoteReplayActor, SampleLatencyIsRecorded) {
  RemoteReplayActor actor(128, 1, /*dispatch_ns=*/1'000'000);  // 1 ms each way
  actor.insert({make_transition(1)});
  (void)actor.sample(4);
  (void)actor.sample(4);
  EXPECT_EQ(actor.sample_latency_ms().count(), 2u);
  EXPECT_GE(actor.sample_latency_ms().mean(), 1.8);  // two dispatch legs
}

TEST(RemoteReplayActor, SampleFromEmptyIsEmpty) {
  RemoteReplayActor actor(16, 1, 0);
  EXPECT_TRUE(actor.sample(4).empty());
}

TEST(RemoteReplayDqn, TrainsThroughTheActor) {
  DqnConfig config;
  config.hidden = {16};
  config.replay_capacity = 1'000;
  config.train_start = 40;
  config.batch_size = 8;
  RemoteReplayActor actor(config.replay_capacity, 1, 0);
  RemoteReplayDqn algorithm(config, 4, 2, 7, actor);

  RolloutBatch batch;
  for (int i = 0; i < 100; ++i) {
    RolloutStep step;
    step.observation = {1.0f, 0.0f, 0.0f, 0.0f};
    step.action = i % 2;
    step.reward = 1.0f;
    step.done = (i % 10 == 9);
    batch.steps.push_back(std::move(step));
  }
  algorithm.prepare_data(std::move(batch));
  // Give the fire-and-forget inserts a moment to land in the actor.
  for (int i = 0; i < 100 && algorithm.replay_size() < 96; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(algorithm.replay_size(), 96u);

  bool trained = false;
  while (algorithm.ready_to_train()) {
    if (algorithm.train().stats.count("warmup") == 0) {
      trained = true;
      break;
    }
  }
  EXPECT_TRUE(trained);
  ASSERT_NE(algorithm.replay_sample_latency(), nullptr);
  EXPECT_GE(algorithm.replay_sample_latency()->count(), 1u);
}

}  // namespace
}  // namespace xt::baselines
