#include "baselines/buffer_hub.h"
#include "baselines/pull_driver.h"
#include "baselines/pull_dummy.h"
#include "baselines/pull_worker.h"

#include <gtest/gtest.h>

#include <string>

#include "algo/factory.h"
#include "common/clock.h"
#include "envs/registry.h"

namespace xt::baselines {
namespace {

TEST(RpcTransport, LocalPullReturnsCopy) {
  RpcTransport transport(RpcConfig{0, {}});
  const Bytes data(100, 7);
  const Bytes pulled = transport.pull(0, data);
  EXPECT_EQ(pulled, data);
}

TEST(RpcTransport, DispatchOverheadApplies) {
  RpcConfig config;
  config.dispatch_ns = 5'000'000;  // 5 ms
  RpcTransport transport(config);
  const Stopwatch clock;
  (void)transport.pull(0, Bytes(10, 1));
  EXPECT_GE(clock.elapsed_ms(), 4.5);
}

TEST(RpcTransport, RemotePullPaysBandwidth) {
  RpcConfig config;
  config.dispatch_ns = 0;
  config.link.bandwidth_bytes_per_sec = 100e6;
  config.link.latency_ns = 20'000'000;  // 20 ms
  config.link.frame_overhead_bytes = 0;
  RpcTransport transport(config);
  const Stopwatch clock;
  // 5 MB at 100 MB/s ~ 50 ms, then 20 ms of propagation.
  (void)transport.pull(1, Bytes(5'000'000, 1));
  EXPECT_GE(clock.elapsed_ms(), 69.9);
  // A local pull crosses nothing; a push crosses its bytes once more.
  (void)transport.pull(0, Bytes(1'000, 1));
  transport.push(1, Bytes(1'000, 1));
  EXPECT_EQ(transport.cross_machine_bytes(), 5'001'000u);
}

TEST(ChunkedTransfer, DelayScalesWithSize) {
  ChunkedTransferConfig config;
  config.chunk_bytes = 1024;
  config.bandwidth_bytes_per_sec = 1e9;
  config.per_chunk_rtt_ns = 1'000'000;  // 1 ms per chunk
  const Stopwatch clock;
  chunked_transfer_delay(10 * 1024, config);  // 10 chunks -> >= 10 ms
  EXPECT_GE(clock.elapsed_ms(), 9.5);
}

TEST(BufferServer, InsertThenTakeFifo) {
  ChunkedTransferConfig fast;
  fast.per_chunk_rtt_ns = 0;
  fast.bandwidth_bytes_per_sec = 1e12;
  BufferServer server(fast);
  server.insert(Bytes{1});
  server.insert(Bytes{2});
  EXPECT_EQ(server.size(), 2u);
  EXPECT_EQ(server.take().value(), Bytes{1});
  EXPECT_EQ(server.take().value(), Bytes{2});
  EXPECT_FALSE(server.take().has_value());
}

TEST(PullhubDummy, DeliversAllMessages) {
  DummyConfig config;
  config.explorers_per_machine = {2};
  config.message_bytes = 32 * 1024;
  config.messages_per_explorer = 5;
  RpcConfig rpc;
  rpc.dispatch_ns = 0;
  const DummyResult result = run_dummy_transmission_pullhub(config, rpc);
  EXPECT_EQ(result.messages_received, 10u);
  EXPECT_EQ(result.bytes_received, 10u * 32 * 1024);
}

TEST(BufferhubDummy, DeliversAllMessages) {
  DummyConfig config;
  config.explorers_per_machine = {2};
  config.message_bytes = 16 * 1024;
  config.messages_per_explorer = 3;
  ChunkedTransferConfig transfer;
  transfer.per_chunk_rtt_ns = 100'000;
  const DummyResult result = run_dummy_transmission_bufferhub(config, transfer);
  EXPECT_EQ(result.messages_received, 6u);
  EXPECT_EQ(result.bytes_received, 6u * 16 * 1024);
}

TEST(PullWorker, ParksASampleAndAStoppedWorkerAnswersEmptyAtOnce) {
  AlgoSetup setup;
  setup.kind = AlgoKind::kImpala;
  setup.env_name = "CartPole";
  setup.impala.hidden = {8};
  setup.impala.fragment_len = 20;
  auto env = make_environment(setup.env_name);
  const std::size_t obs_dim = env->observation_dim();
  const std::int32_t n_actions = env->action_count();
  RpcTransport transport(RpcConfig{0, {}});
  PullWorker worker(0, 0, std::move(env), make_agent(setup, obs_dim, n_actions, 0),
                    transport, nullptr);

  PullWorker::Ticket ticket = worker.sample_async();
  EXPECT_FALSE(worker.sample_get(std::move(ticket)).empty());
  EXPECT_EQ(worker.env_steps(), 20u);

  worker.stop();
  PullWorker::Ticket stopped = worker.sample_async();
  EXPECT_TRUE(stopped.ready());
  EXPECT_TRUE(worker.sample_get(std::move(stopped)).empty());
  worker.set_weights(Bytes(16, 1), 1);  // returns: nothing will apply it
}

TEST(PullDriver, ImpalaRunConsumesSteps) {
  AlgoSetup setup;
  setup.kind = AlgoKind::kImpala;
  setup.env_name = "CartPole";
  setup.impala.hidden = {16};
  setup.impala.fragment_len = 50;

  PullDeployment deployment;
  deployment.explorers_per_machine = {2};
  deployment.rpc.dispatch_ns = 10'000;
  deployment.max_steps_consumed = 1'000;
  deployment.max_seconds = 30.0;

  const RunReport report = run_pullhub(setup, deployment);
  EXPECT_GE(report.steps_consumed, 1'000u);
  EXPECT_GT(report.training_sessions, 0);
  EXPECT_GT(report.mean_transmission_ms, 0.0);
  EXPECT_GT(report.weight_broadcasts, 0u);
}

TEST(PullDriver, PpoRunWorks) {
  AlgoSetup setup;
  setup.kind = AlgoKind::kPpo;
  setup.env_name = "CartPole";
  setup.ppo.hidden = {16};
  setup.ppo.fragment_len = 50;
  setup.ppo.n_explorers = 2;
  setup.ppo.epochs = 1;

  PullDeployment deployment;
  deployment.explorers_per_machine = {2};
  deployment.rpc.dispatch_ns = 10'000;
  deployment.max_steps_consumed = 400;
  deployment.max_seconds = 30.0;

  const RunReport report = run_pullhub(setup, deployment);
  EXPECT_GE(report.steps_consumed, 400u);
  EXPECT_GE(report.training_sessions, 2);
}

TEST(PullDriver, DqnRunWithRemoteReplayActor) {
  AlgoSetup setup;
  setup.kind = AlgoKind::kDqn;
  setup.env_name = "CartPole";
  setup.dqn.hidden = {16};
  setup.dqn.replay_capacity = 5'000;
  setup.dqn.train_start = 100;
  setup.dqn.eps_decay_steps = 500;

  PullDeployment deployment;
  deployment.explorers_per_machine = {1};
  deployment.rpc.dispatch_ns = 10'000;
  deployment.max_steps_consumed = 500;
  deployment.max_seconds = 30.0;

  const RunReport report = run_pullhub(setup, deployment);
  EXPECT_GE(report.steps_consumed, 500u);
  EXPECT_GT(report.training_sessions, 0);
}

TEST(PullDriver, MultiMachineImpalaRuns) {
  AlgoSetup setup;
  setup.kind = AlgoKind::kImpala;
  setup.env_name = "CartPole";
  setup.impala.hidden = {16};
  setup.impala.fragment_len = 50;

  PullDeployment deployment;
  deployment.explorers_per_machine = {1, 1};
  deployment.rpc.dispatch_ns = 10'000;
  deployment.rpc.link.bandwidth_bytes_per_sec = 500e6;
  deployment.max_steps_consumed = 500;
  deployment.max_seconds = 30.0;

  const RunReport report = run_pullhub(setup, deployment);
  EXPECT_GE(report.steps_consumed, 500u);
}

// Each run records into a registry of its own, so a later run's dump does
// not carry an earlier run's pulls.
TEST(PullDriver, EachRunDumpsOnlyItsOwnMetrics) {
  AlgoSetup setup;
  setup.kind = AlgoKind::kImpala;
  setup.env_name = "CartPole";
  setup.impala.hidden = {16};
  setup.impala.fragment_len = 50;

  PullDeployment deployment;
  deployment.explorers_per_machine = {2};
  deployment.rpc.dispatch_ns = 10'000;
  deployment.max_steps_consumed = 300;
  deployment.max_seconds = 30.0;

  const RunReport first = run_pullhub(setup, deployment);
  ASSERT_GT(first.rollout_messages, 0u);
  const RunReport second = run_pullhub(setup, deployment);
  const std::string line = "\nxt_pull_messages_total ";
  const std::size_t at = second.prometheus.find(line);
  ASSERT_NE(at, std::string::npos) << second.prometheus;
  EXPECT_EQ(std::stoull(second.prometheus.substr(at + line.size())),
            second.rollout_messages);
}

}  // namespace
}  // namespace xt::baselines
