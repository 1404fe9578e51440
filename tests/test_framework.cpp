#include "framework/runtime.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "algo/ppo.h"
#include "baselines/pull_driver.h"
#include "framework/dummy_transmission.h"
#include "obs/catalog.h"
#include "obs/exporters.h"

namespace xt {
namespace {

AlgoSetup tiny_impala_setup() {
  AlgoSetup setup;
  setup.kind = AlgoKind::kImpala;
  setup.env_name = "CartPole";
  setup.seed = 1;
  setup.impala.hidden = {16};
  setup.impala.fragment_len = 50;
  return setup;
}

TEST(XingTianRuntime, ImpalaRunConsumesSteps) {
  DeploymentConfig deployment;
  deployment.explorers_per_machine = {2};
  deployment.max_steps_consumed = 2'000;
  deployment.max_seconds = 30.0;

  XingTianRuntime runtime(tiny_impala_setup(), deployment);
  const RunReport report = runtime.run();

  EXPECT_GE(report.steps_consumed, 2'000u);
  EXPECT_GT(report.training_sessions, 0);
  EXPECT_GT(report.avg_throughput, 0.0);
  EXPECT_GT(report.rollout_messages, 0u);
  EXPECT_GT(report.rollout_bytes, 0u);
  EXPECT_GT(report.weight_broadcasts, 0u);
  EXPECT_GT(report.episodes, 0u);  // CartPole episodes are short
  EXPECT_FALSE(report.throughput_series.empty());
}

TEST(XingTianRuntime, PpoSynchronousRunWorks) {
  AlgoSetup setup;
  setup.kind = AlgoKind::kPpo;
  setup.env_name = "CartPole";
  setup.ppo.hidden = {16};
  setup.ppo.fragment_len = 50;
  setup.ppo.n_explorers = 3;
  setup.ppo.epochs = 1;

  DeploymentConfig deployment;
  deployment.explorers_per_machine = {3};
  deployment.max_steps_consumed = 600;  // 4 iterations of 150
  deployment.max_seconds = 30.0;

  XingTianRuntime runtime(setup, deployment);
  const RunReport report = runtime.run();
  EXPECT_GE(report.steps_consumed, 600u);
  // PPO consumes one fragment per explorer per session.
  EXPECT_GE(report.training_sessions, 4);
  EXPECT_GT(report.weight_broadcasts, 0u);
}

TEST(XingTianRuntime, SyncPpoAcrossMachinesTrainsOnlyCurrentFragments) {
  // A remote explorer rolls a 50-step CartPole fragment out in well under
  // the 10 ms the learner's start-up broadcast takes to reach its machine.
  // It must still wait for the learner's weights, or its first fragment
  // trains a session one version behind, and every fragment after it too.
  AlgoSetup setup;
  setup.kind = AlgoKind::kPpo;
  setup.env_name = "CartPole";
  setup.ppo.hidden = {16};
  setup.ppo.fragment_len = 50;
  setup.ppo.n_explorers = 4;
  setup.ppo.epochs = 1;

  DeploymentConfig deployment;
  deployment.explorers_per_machine = {2, 2};
  deployment.link.latency_ns = 10'000'000;
  deployment.max_steps_consumed = 12 * 4 * 50;  // 12 sessions
  // Passes in well under a second; a local explorer that missed the
  // start-up broadcast stalls the run until this cap.
  deployment.max_seconds = 10.0;

  XingTianRuntime runtime(setup, deployment);
  const RunReport report = runtime.run();
  ASSERT_GE(report.training_sessions, 10);
  const auto& ppo = dynamic_cast<const PpoAlgorithm&>(runtime.learner().algorithm());
  EXPECT_EQ(ppo.fragments_consumed_behind(), 0u);
  EXPECT_EQ(ppo.stale_fragments_dropped(), 0u);
}

TEST(XingTianRuntime, DqnRunWithLearnerLocalReplay) {
  AlgoSetup setup;
  setup.kind = AlgoKind::kDqn;
  setup.env_name = "CartPole";
  setup.dqn.hidden = {16};
  setup.dqn.replay_capacity = 5'000;
  setup.dqn.train_start = 200;
  setup.dqn.eps_decay_steps = 500;

  DeploymentConfig deployment;
  deployment.explorers_per_machine = {1};  // the paper's single-explorer DQN
  deployment.max_steps_consumed = 1'000;
  deployment.max_seconds = 30.0;

  XingTianRuntime runtime(setup, deployment);
  const RunReport report = runtime.run();
  EXPECT_GE(report.steps_consumed, 1'000u);
  EXPECT_GT(report.training_sessions, 0);
}

TEST(XingTianRuntime, WallClockGoalStopsRun) {
  DeploymentConfig deployment;
  deployment.explorers_per_machine = {1};
  deployment.max_steps_consumed = 0;  // unlimited
  deployment.max_seconds = 0.5;

  XingTianRuntime runtime(tiny_impala_setup(), deployment);
  const RunReport report = runtime.run();
  EXPECT_GE(report.wall_seconds, 0.5);
  EXPECT_LT(report.wall_seconds, 10.0);
}

TEST(XingTianRuntime, MultiMachineDeploymentRuns) {
  DeploymentConfig deployment;
  deployment.explorers_per_machine = {1, 2};  // learner on machine 0
  deployment.link.bandwidth_bytes_per_sec = 500e6;
  deployment.max_steps_consumed = 1'500;
  deployment.max_seconds = 30.0;

  XingTianRuntime runtime(tiny_impala_setup(), deployment);
  const RunReport report = runtime.run();
  EXPECT_GE(report.steps_consumed, 1'500u);
}

// Frames still queued on a link when the workers stop are dropped by the
// stopping pipe, and those in flight land inside run(), where the brokers
// count them as drops to endpoints already gone, so the report's dump is
// final: nothing moves the registry after run() returns.
// The remote explorers outrun their 5 MB/s link, as in
// configs/chaos_impala.conf, so the run ends with frames in flight.
TEST(XingTianRuntime, RegistryFrozenAfterRun) {
  DeploymentConfig deployment;
  deployment.explorers_per_machine = {2, 2};  // learner on machine 0
  deployment.link.bandwidth_bytes_per_sec = 5e6;
  deployment.max_steps_consumed = 20'000;
  deployment.max_seconds = 30.0;

  XingTianRuntime runtime(tiny_impala_setup(), deployment);
  const RunReport report = runtime.run();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(prometheus_text(runtime.metrics()), report.prometheus);
}

TEST(XingTianRuntime, LatencyInstrumentationPopulated) {
  DeploymentConfig deployment;
  deployment.explorers_per_machine = {2};
  deployment.max_steps_consumed = 1'000;
  deployment.max_seconds = 30.0;

  XingTianRuntime runtime(tiny_impala_setup(), deployment);
  const RunReport report = runtime.run();
  EXPECT_GT(report.mean_train_ms, 0.0);
  EXPECT_GE(report.mean_wait_ms, 0.0);
  EXPECT_GT(report.mean_transmission_ms, 0.0);
  EXPECT_FALSE(report.wait_cdf.empty());
}

TEST(DummyTransmission, SingleMachineDelivers) {
  DummyConfig config;
  config.explorers_per_machine = {2};
  config.message_bytes = 64 * 1024;
  config.messages_per_explorer = 5;
  config.broker.compression.enabled = false;

  const DummyResult result = run_dummy_transmission_xingtian(config);
  EXPECT_EQ(result.messages_received, 10u);
  EXPECT_EQ(result.bytes_received, 10u * 64 * 1024);
  EXPECT_GT(result.throughput_mbps, 0.0);
  EXPECT_EQ(result.cross_machine_bytes, 0u);
}

TEST(DummyTransmission, TwoMachineTrafficCrossesLink) {
  DummyConfig config;
  config.explorers_per_machine = {1, 1};
  config.message_bytes = 32 * 1024;
  config.messages_per_explorer = 4;
  config.link.bandwidth_bytes_per_sec = 1e9;
  config.broker.compression.enabled = false;

  const DummyResult result = run_dummy_transmission_xingtian(config);
  EXPECT_EQ(result.messages_received, 8u);
  // Only the remote explorer's messages cross the simulated NIC.
  EXPECT_GE(result.cross_machine_bytes, 4u * 32 * 1024);
  EXPECT_LT(result.cross_machine_bytes, 8u * 32 * 1024);
}

TEST(XingTianRuntime, StatsCsvIsWritten) {
  const std::string csv = ::testing::TempDir() + "xt_stats_test.csv";
  std::remove(csv.c_str());

  DeploymentConfig deployment;
  deployment.explorers_per_machine = {1};
  deployment.max_steps_consumed = 500;
  deployment.max_seconds = 30.0;
  deployment.stats_csv_path = csv;

  XingTianRuntime runtime(tiny_impala_setup(), deployment);
  (void)runtime.run();

  std::FILE* file = std::fopen(csv.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  char header[64] = {0};
  ASSERT_NE(std::fgets(header, sizeof(header), file), nullptr);
  EXPECT_STREQ(header, "t_seconds,source,key,value\n");
  char row[256] = {0};
  EXPECT_NE(std::fgets(row, sizeof(row), file), nullptr);  // at least one record
  std::fclose(file);
  std::remove(csv.c_str());
}

TEST(DummyTransmission, PayloadHelpers) {
  const Bytes random = make_dummy_payload(1'000, false, 1);
  const Bytes repetitive = make_dummy_payload(1'000, true, 1);
  EXPECT_EQ(random.size(), 1'000u);
  EXPECT_EQ(repetitive.size(), 1'000u);
  EXPECT_NE(random, repetitive);
}

TEST(XingTianRuntime, BoundedSendBuffersStillCompleteRuns) {
  DeploymentConfig deployment;
  deployment.explorers_per_machine = {2};
  deployment.explorer_send_capacity = 1;  // maximal backpressure
  deployment.max_steps_consumed = 1'000;
  deployment.max_seconds = 30.0;
  XingTianRuntime runtime(tiny_impala_setup(), deployment);
  const RunReport report = runtime.run();
  EXPECT_GE(report.steps_consumed, 1'000u);
}

/// Every metric family the end-to-end benchmark (bench/e2e/measure.cpp)
/// reads. A renamed family would read 0 there and silently zero a per-layer
/// metric, so a rename must fail here first.
constexpr const char* kBenchmarkFamilies[] = {
    "xt_broker_dropped_total",   "xt_broker_route_ms",
    "xt_codec_bytes_in_total",   "xt_codec_bytes_out_total",
    "xt_codec_compress_ms",      "xt_codec_decompress_ms",
    "xt_explorer_rollout_ms",    "xt_explorer_wait_ms",
    "xt_gemm_flops_total",       "xt_gemm_ms",
    "xt_learner_train_ms",       "xt_learner_wait_ms",
    "xt_messages_sent_total",    "xt_messages_shed_total",
    "xt_pipe_frames_total",      "xt_pipe_transmit_ms",
    "xt_pipe_wire_bytes_total",  "xt_queue_wait_ms",
    "xt_recv_decode_ms",         "xt_send_serialize_ms",
    "xt_store_put_bytes_total",  "xt_store_put_ms",
    "xt_weights_applied_total",  "xt_weights_broadcast_ms",
    "xt_weights_bytes_total",    "xt_weights_decode_failures_total",
    "xt_weights_decode_ms",      "xt_weights_encode_ms",
    "xt_weights_raw_bytes_total",
};
/// Registered only with reliable links and a bounded overload policy.
constexpr const char* kConditionalFamilies[] = {"xt_retransmits_total",
                                                "xt_frames_shed_total"};

/// The families (series names up to the label block) a run registered.
std::set<std::string> registered_families(const MetricsRegistry& metrics) {
  std::set<std::string> families;
  const auto add = [&](const std::string& name) {
    families.insert(name.substr(0, name.find('{')));
  };
  for (const auto& [name, value] : metrics.counters()) add(name);
  for (const auto& [name, value] : metrics.histograms()) add(name);
  return families;
}

TEST(MetricNames, RunsRegisterEveryFamilyTheBenchmarkReads) {
  DeploymentConfig deployment;
  deployment.explorers_per_machine = {1, 1};
  deployment.max_steps_consumed = 500;
  deployment.max_seconds = 30.0;
  {
    XingTianRuntime runtime(tiny_impala_setup(), deployment);
    (void)runtime.run();
    const std::set<std::string> families = registered_families(runtime.metrics());
    for (const char* family : kBenchmarkFamilies) {
      EXPECT_TRUE(families.contains(family)) << family;
    }
    for (const char* family : kConditionalFamilies) {
      EXPECT_FALSE(families.contains(family)) << family;
    }
  }

  deployment.reliability.enabled = true;
  deployment.link.faults.seed = 3;
  deployment.link.faults.drop_probability = 0.01;
  deployment.overload.high_watermark = 64;
  XingTianRuntime runtime(tiny_impala_setup(), deployment);
  (void)runtime.run();
  const std::set<std::string> families = registered_families(runtime.metrics());
  for (const char* family : kBenchmarkFamilies) {
    EXPECT_TRUE(families.contains(family)) << family;
  }
  for (const char* family : kConditionalFamilies) {
    EXPECT_TRUE(families.contains(family)) << family;
  }
}

/// A Prometheus dump's families: each one's TYPE and the label keys of each
/// of its sample lines (a bucket line's `le` left out).
struct DumpFamily {
  std::string type;
  std::set<std::vector<std::string>> label_keys;
};

std::map<std::string, DumpFamily> dump_families(const std::string& text) {
  std::map<std::string, DumpFamily> families;
  DumpFamily* family = nullptr;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.starts_with("# TYPE ")) {
      std::istringstream fields(line.substr(7));
      std::string name;
      fields >> name;
      family = &families[name];
      fields >> family->type;
      continue;
    }
    // A sample line, `name{key="value",...} value`, under its family's TYPE.
    EXPECT_NE(family, nullptr) << line;
    if (family == nullptr) continue;
    std::vector<std::string> keys;
    std::size_t i = line.find('{');
    if (i < line.find(' ')) {
      while (line[i] != '}') {
        const std::size_t eq = line.find('=', i + 1);
        keys.push_back(line.substr(i + 1, eq - i - 1));
        i = eq + 2;  // past `="`
        while (line[i] != '"') i += line[i] == '\\' ? 2 : 1;
        ++i;  // past the closing quote, onto `,` or `}`
      }
    }
    if (!keys.empty() && keys.back() == "le") keys.pop_back();
    family->label_keys.insert(keys);
  }
  return families;
}

const MetricRow* catalog_row(std::string_view name) {
  for (const MetricRow* row : metric::kCatalog) {
    if (name == row->name) return row;
  }
  return nullptr;
}

TEST(MetricCatalog, RowNamesAreUnique) {
  std::set<std::string_view> names;
  for (const MetricRow* row : metric::kCatalog) {
    EXPECT_TRUE(names.insert(row->name).second) << row->name;
  }
}

TEST(MetricCatalog, EveryFamilyTheBenchmarkReadsIsARow) {
  for (const char* family : kBenchmarkFamilies) {
    EXPECT_NE(catalog_row(family), nullptr) << family;
  }
}

// Between them, a runtime run with every optional layer on (reliable links,
// faults, a bounded overload policy, supervision and profiling) and a pull
// baseline run dump every catalog row, and nothing else.
TEST(MetricCatalog, RunsDumpEveryRowAndOnlyRows) {
  DeploymentConfig deployment;
  deployment.explorers_per_machine = {1, 1};
  deployment.max_steps_consumed = 0;
  deployment.max_seconds = 0.5;
  deployment.reliability.enabled = true;
  deployment.link.faults.seed = 3;
  deployment.link.faults.drop_probability = 0.01;
  deployment.overload.high_watermark = 64;
  deployment.supervision.enabled = true;
  deployment.profile.enabled = true;
  deployment.profile.saturation_hz = 50.0;
  XingTianRuntime runtime(tiny_impala_setup(), deployment);
  const std::string runtime_dump = runtime.run().prometheus;

  baselines::PullDeployment pull;
  pull.explorers_per_machine = {2};
  pull.max_steps_consumed = 200;
  pull.max_seconds = 30.0;
  const std::string pull_dump =
      baselines::run_pullhub(tiny_impala_setup(), pull).prometheus;

  std::set<std::string> dumped;
  for (const std::string& dump : {runtime_dump, pull_dump}) {
    for (const auto& [name, family] : dump_families(dump)) {
      dumped.insert(name);
      const MetricRow* row = catalog_row(name);
      ASSERT_NE(row, nullptr) << name;
      EXPECT_EQ(family.type, metric_kind_name(row->kind)) << name;
      const std::vector<std::string> keys(row->labels.begin(), row->labels.end());
      EXPECT_EQ(family.label_keys, std::set{keys}) << name;
    }
  }
  for (const MetricRow* row : metric::kCatalog) {
    EXPECT_TRUE(dumped.contains(row->name)) << row->name;
  }
}

// End-to-end smoke across every algorithm kind under the full runtime.
class RuntimeAlgoTest : public ::testing::TestWithParam<AlgoKind> {};

TEST_P(RuntimeAlgoTest, RunsToStepGoalOnCartPole) {
  AlgoSetup setup;
  setup.kind = GetParam();
  setup.env_name = "CartPole";
  setup.seed = 3;
  setup.impala.hidden = {16};
  setup.impala.fragment_len = 50;
  setup.ppo.hidden = {16};
  setup.ppo.fragment_len = 50;
  setup.ppo.n_explorers = 2;
  setup.ppo.epochs = 1;
  setup.dqn.hidden = {16};
  setup.dqn.replay_capacity = 5'000;
  setup.dqn.train_start = 100;
  setup.dqn.eps_decay_steps = 500;

  DeploymentConfig deployment;
  deployment.explorers_per_machine = {setup.kind == AlgoKind::kDqn ? 1 : 2};
  deployment.max_steps_consumed = 600;
  deployment.max_seconds = 30.0;

  XingTianRuntime runtime(setup, deployment);
  const RunReport report = runtime.run();
  EXPECT_GE(report.steps_consumed, 600u);
  EXPECT_GT(report.training_sessions, 0);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, RuntimeAlgoTest,
                         ::testing::Values(AlgoKind::kDqn, AlgoKind::kPpo,
                                           AlgoKind::kImpala, AlgoKind::kA2c));

}  // namespace
}  // namespace xt
