#include "framework/config_file.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

namespace xt {
namespace {

TEST(ConfigFile, ParsesFullConfig) {
  const std::string text = R"(
# a full XingTian launch configuration
[algorithm]
kind = impala
env = SynthBreakout
seed = 42
lr = 0.001
gamma = 0.98
hidden = 128,64
fragment_len = 500
entropy_coef = 0.02

[deployment]
explorers_per_machine = 16,16
learner_machine = 1
max_steps = 1000000
max_seconds = 3600
target_return = 500
target_return_window = 50
nic_bandwidth_mbps = 118.04
ipc_bandwidth_mbps = 65
compression = on
compression_threshold_kb = 512
explorer_send_capacity = 4
stats_csv = /tmp/run.csv
tracing = on
trace_capacity = 4096
chrome_trace = /tmp/run_trace.json
prometheus_dump = /tmp/run_metrics.prom
stats_line_every_s = 2.5
)";
  std::string error;
  const auto config = parse_launch_config(text, &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->setup.kind, AlgoKind::kImpala);
  EXPECT_EQ(config->setup.env_name, "SynthBreakout");
  EXPECT_EQ(config->setup.seed, 42u);
  EXPECT_FLOAT_EQ(config->setup.impala.lr, 0.001f);
  EXPECT_FLOAT_EQ(config->setup.impala.gamma, 0.98f);
  EXPECT_EQ(config->setup.impala.hidden, (std::vector<std::size_t>{128, 64}));
  EXPECT_EQ(config->setup.impala.fragment_len, 500u);
  EXPECT_FLOAT_EQ(config->setup.impala.entropy_coef, 0.02f);

  EXPECT_EQ(config->deployment.explorers_per_machine, (std::vector<int>{16, 16}));
  EXPECT_EQ(config->deployment.learner_machine, 1);
  EXPECT_EQ(config->deployment.max_steps_consumed, 1'000'000u);
  EXPECT_DOUBLE_EQ(config->deployment.max_seconds, 3600.0);
  EXPECT_DOUBLE_EQ(config->deployment.target_return, 500.0);
  EXPECT_EQ(config->deployment.target_return_window, 50);
  EXPECT_DOUBLE_EQ(config->deployment.link.bandwidth_bytes_per_sec, 118.04e6);
  EXPECT_DOUBLE_EQ(config->deployment.broker.ipc_bandwidth_bytes_per_sec, 65e6);
  EXPECT_TRUE(config->deployment.broker.compression.enabled);
  EXPECT_EQ(config->deployment.broker.compression.threshold_bytes, 512u * 1024);
  EXPECT_EQ(config->deployment.explorer_send_capacity, 4u);
  EXPECT_EQ(config->deployment.stats_csv_path, "/tmp/run.csv");
  EXPECT_TRUE(config->deployment.obs.tracing);
  EXPECT_EQ(config->deployment.obs.trace_capacity, 4096u);
  EXPECT_EQ(config->deployment.obs.chrome_trace_path, "/tmp/run_trace.json");
  EXPECT_EQ(config->deployment.obs.prometheus_path, "/tmp/run_metrics.prom");
  EXPECT_DOUBLE_EQ(config->deployment.obs.stats_line_every_s, 2.5);
  // PPO explorer count derived from the deployment.
  EXPECT_EQ(config->setup.ppo.n_explorers, 32u);
}

TEST(ConfigFile, ParsesFaultsSection) {
  const std::string text = R"(
[faults]
seed = 99
drop_prob = 0.02
corrupt_prob = 0.01
delay_prob = 0.05
delay_ms = 3.5
blackout_start_s = 10
blackout_duration_s = 2
blackout_every_s = 30
reliable = on
retransmit_timeout_ms = 25
retransmit_backoff = 1.5
retransmit_max_ms = 400
retransmit_max_retries = 6
supervision = on
heartbeat_every_s = 0.2
heartbeat_timeout_s = 1.0
max_worker_restarts = 5
checkpoint = /tmp/run.ckpt
checkpoint_every_versions = 10
)";
  std::string error;
  const auto config = parse_launch_config(text, &error);
  ASSERT_TRUE(config.has_value()) << error;
  const FaultPlan& faults = config->deployment.link.faults;
  EXPECT_EQ(faults.seed, 99u);
  EXPECT_DOUBLE_EQ(faults.drop_probability, 0.02);
  EXPECT_DOUBLE_EQ(faults.corrupt_probability, 0.01);
  EXPECT_DOUBLE_EQ(faults.delay_probability, 0.05);
  EXPECT_EQ(faults.delay_ns, 3'500'000);
  EXPECT_DOUBLE_EQ(faults.blackout_start_s, 10.0);
  EXPECT_DOUBLE_EQ(faults.blackout_duration_s, 2.0);
  EXPECT_DOUBLE_EQ(faults.blackout_every_s, 30.0);
  EXPECT_TRUE(faults.enabled());

  EXPECT_TRUE(config->deployment.reliability.enabled);
  EXPECT_DOUBLE_EQ(config->deployment.reliability.rto_ms, 25.0);
  EXPECT_DOUBLE_EQ(config->deployment.reliability.backoff, 1.5);
  EXPECT_DOUBLE_EQ(config->deployment.reliability.max_rto_ms, 400.0);
  EXPECT_EQ(config->deployment.reliability.max_retries, 6u);

  EXPECT_TRUE(config->deployment.supervision.enabled);
  EXPECT_DOUBLE_EQ(config->deployment.supervision.heartbeat_every_s, 0.2);
  EXPECT_DOUBLE_EQ(config->deployment.supervision.heartbeat_timeout_s, 1.0);
  EXPECT_EQ(config->deployment.supervision.max_restarts_per_worker, 5u);
  EXPECT_EQ(config->deployment.checkpoint_path, "/tmp/run.ckpt");
  EXPECT_EQ(config->deployment.checkpoint_every_versions, 10u);
}

TEST(ConfigFile, ComputeSection) {
  auto config = parse_launch_config("[compute]\nthreads = 8\n");
  ASSERT_TRUE(config);
  EXPECT_EQ(config->deployment.compute_threads, 8);

  config = parse_launch_config("[compute]\nthreads = 0\n");
  ASSERT_TRUE(config);
  EXPECT_EQ(config->deployment.compute_threads, 0);

  config = parse_launch_config("[compute]\nthreads = auto\n");
  ASSERT_TRUE(config);
  EXPECT_EQ(config->deployment.compute_threads, -1);

  std::string error;
  EXPECT_FALSE(parse_launch_config("[compute]\nthreads = lots\n", &error));
  EXPECT_NE(error.find("bad threads"), std::string::npos);
  EXPECT_FALSE(parse_launch_config("[compute]\nthreads = -2\n"));
  EXPECT_FALSE(parse_launch_config("[compute]\nnonsense = 1\n", &error));
  EXPECT_NE(error.find("unknown [compute] key"), std::string::npos);
}

TEST(ConfigFile, FaultsSectionRejectsBadValues) {
  std::string error;
  EXPECT_FALSE(parse_launch_config("[faults]\ndrop_prob = lots\n", &error));
  EXPECT_NE(error.find("bad drop_prob"), std::string::npos);
  EXPECT_FALSE(parse_launch_config("[faults]\nreliable = maybe\n"));
  EXPECT_FALSE(parse_launch_config("[faults]\nretransmit_max_retries = many\n"));
  EXPECT_FALSE(parse_launch_config("[faults]\nnonsense = 1\n", &error));
  EXPECT_NE(error.find("unknown [faults] key"), std::string::npos);
}

TEST(ConfigFile, ProfileSection) {
  const std::string text = R"(
[profile]
enabled = on
hz = 250
saturation_hz = 25
profile_json = /tmp/run_profile.json
)";
  std::string error;
  const auto config = parse_launch_config(text, &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_TRUE(config->deployment.profile.enabled);
  EXPECT_DOUBLE_EQ(config->deployment.profile.hz, 250.0);
  EXPECT_DOUBLE_EQ(config->deployment.profile.saturation_hz, 25.0);
  EXPECT_EQ(config->deployment.profile.profile_json_path,
            "/tmp/run_profile.json");

  // Defaults: off, ~100 Hz sampling, 10 Hz saturation probe, no JSON dump.
  const auto defaults = parse_launch_config("");
  ASSERT_TRUE(defaults.has_value());
  EXPECT_FALSE(defaults->deployment.profile.enabled);
  EXPECT_GT(defaults->deployment.profile.hz, 0.0);
  EXPECT_GT(defaults->deployment.profile.saturation_hz, 0.0);
  EXPECT_TRUE(defaults->deployment.profile.profile_json_path.empty());
}

TEST(ConfigFile, ProfileSectionRejectsBadValues) {
  std::string error;
  EXPECT_FALSE(parse_launch_config("[profile]\nhz = fast\n", &error));
  EXPECT_NE(error.find("bad hz"), std::string::npos);
  EXPECT_FALSE(parse_launch_config("[profile]\nhz = 0\n"));
  EXPECT_FALSE(parse_launch_config("[profile]\nhz = -5\n"));
  EXPECT_FALSE(parse_launch_config("[profile]\nsaturation_hz = 0\n"));
  EXPECT_FALSE(parse_launch_config("[profile]\nenabled = maybe\n"));
  EXPECT_FALSE(parse_launch_config("[profile]\nnonsense = 1\n", &error));
  EXPECT_NE(error.find("unknown [profile] key"), std::string::npos);
}

TEST(ConfigFile, AllAlgorithmKinds) {
  for (const auto& [name, kind] :
       std::vector<std::pair<std::string, AlgoKind>>{{"dqn", AlgoKind::kDqn},
                                                     {"ppo", AlgoKind::kPpo},
                                                     {"impala", AlgoKind::kImpala},
                                                     {"a2c", AlgoKind::kA2c}}) {
    const auto config =
        parse_launch_config("[algorithm]\nkind = " + name + "\n");
    ASSERT_TRUE(config.has_value()) << name;
    EXPECT_EQ(config->setup.kind, kind) << name;
  }
}

TEST(ConfigFile, DefaultsSurviveEmptyConfig) {
  const auto config = parse_launch_config("");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->setup.kind, AlgoKind::kImpala);
  EXPECT_EQ(config->deployment.explorers_per_machine, (std::vector<int>{4}));
}

TEST(ConfigFile, RejectsUnknownKey) {
  std::string error;
  EXPECT_FALSE(parse_launch_config("[algorithm]\nlearningrate = 1\n", &error));
  EXPECT_NE(error.find("unknown [algorithm] key"), std::string::npos);
}

TEST(ConfigFile, RejectsUnknownSection) {
  std::string error;
  EXPECT_FALSE(parse_launch_config("[cluster]\nfoo = 1\n", &error));
  EXPECT_NE(error.find("unknown section"), std::string::npos);
}

TEST(ConfigFile, RejectsKeyOutsideSection) {
  std::string error;
  EXPECT_FALSE(parse_launch_config("kind = dqn\n", &error));
  EXPECT_NE(error.find("outside any section"), std::string::npos);
}

TEST(ConfigFile, RejectsMalformedValues) {
  EXPECT_FALSE(parse_launch_config("[algorithm]\nseed = banana\n"));
  EXPECT_FALSE(parse_launch_config("[algorithm]\nkind = sarsa\n"));
  EXPECT_FALSE(parse_launch_config("[deployment]\ncompression = maybe\n"));
  EXPECT_FALSE(parse_launch_config("[deployment]\ntracing = maybe\n"));
  EXPECT_FALSE(parse_launch_config("[deployment]\ntrace_capacity = 0\n"));
  EXPECT_FALSE(parse_launch_config("[deployment]\nstats_line_every_s = x\n"));
  EXPECT_FALSE(parse_launch_config("[deployment]\nexplorers_per_machine = \n"));
  EXPECT_FALSE(parse_launch_config("[algorithm\nkind = dqn\n"));
  EXPECT_FALSE(parse_launch_config("[algorithm]\nkind dqn\n"));
}

TEST(ConfigFile, CommentsAndWhitespaceAreIgnored)  {
  const auto config = parse_launch_config(
      "  [algorithm]   # trailing comment\n"
      "   kind =    dqn   \n"
      "\n"
      "# full-line comment\n");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->setup.kind, AlgoKind::kDqn);
}

TEST(ConfigFile, ErrorMessagesCarryLineNumbers) {
  std::string error;
  EXPECT_FALSE(parse_launch_config("[algorithm]\nkind = dqn\nbogus = 1\n", &error));
  EXPECT_NE(error.find("line 3"), std::string::npos);
}

TEST(ConfigFile, LoadFromDiskAndMissingFile) {
  const std::string path = ::testing::TempDir() + "xt_config_test.conf";
  {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    const char* text = "[algorithm]\nkind = ppo\n";
    std::fwrite(text, 1, std::strlen(text), file);
    std::fclose(file);
  }
  std::string error;
  const auto config = load_launch_config(path, &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->setup.kind, AlgoKind::kPpo);
  std::remove(path.c_str());

  EXPECT_FALSE(load_launch_config(path, &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(ConfigFile, CommSection) {
  std::string error;
  const auto config = parse_launch_config("[comm]\nrouter_shards = 4\n", &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->deployment.broker.router_shards, 4u);
  // A removed key is an unknown key, not one that is silently ignored.
  EXPECT_FALSE(parse_launch_config("[comm]\ncoalescing = on\n", &error));
  EXPECT_NE(error.find("unknown [comm] key"), std::string::npos) << error;
}

TEST(ConfigFile, CommSectionDefaultsOffAndSingleShard) {
  std::string error;
  const auto config = parse_launch_config("", &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->deployment.broker.router_shards, 1u);
}

TEST(ConfigFile, CommOverloadSection) {
  const std::string text = R"(
[comm]
overload_high_watermark = 4096
overload_low_watermark = 1024
shed_policy = newest
weights_block_ms = 250
breaker_failures = 5
breaker_probe_ms = 500
)";
  std::string error;
  const auto config = parse_launch_config(text, &error);
  ASSERT_TRUE(config.has_value()) << error;
  const OverloadConfig& overload = config->deployment.overload;
  EXPECT_TRUE(overload.bounded());
  EXPECT_EQ(overload.high_watermark, 4096u);
  EXPECT_EQ(overload.low_watermark, 1024u);
  EXPECT_EQ(overload.shed_policy, ShedPolicy::kNewest);
  EXPECT_EQ(overload.weights_block_ms, 250u);
  EXPECT_EQ(overload.breaker_failures, 5u);
  EXPECT_EQ(overload.breaker_probe_ms, 500u);
}

TEST(ConfigFile, CommOverloadDefaultsToUnbounded) {
  const auto config = parse_launch_config("");
  ASSERT_TRUE(config.has_value());
  // The master switch stays off: zero watermark = legacy unbounded queues.
  EXPECT_FALSE(config->deployment.overload.bounded());
  EXPECT_EQ(config->deployment.overload.shed_policy, ShedPolicy::kOldest);
}

TEST(ConfigFile, CommOverloadRejectsOutOfRangeValues) {
  // Out-of-range values are hard errors with the accepted range in the
  // message — never silently clamped.
  std::string error;
  EXPECT_FALSE(parse_launch_config(
      "[comm]\noverload_high_watermark = -1\n", &error));
  EXPECT_NE(error.find("bad overload_high_watermark"), std::string::npos);
  EXPECT_NE(error.find("0..100000000"), std::string::npos);
  EXPECT_FALSE(parse_launch_config(
      "[comm]\noverload_high_watermark = 100000001\n", &error));
  EXPECT_NE(error.find("bad overload_high_watermark"), std::string::npos);
  EXPECT_FALSE(parse_launch_config(
      "[comm]\noverload_high_watermark = lots\n"));
  EXPECT_FALSE(parse_launch_config(
      "[comm]\noverload_high_watermark = 64\n"
      "overload_low_watermark = 200000000\n", &error));
  EXPECT_NE(error.find("bad overload_low_watermark"), std::string::npos);
  EXPECT_FALSE(parse_launch_config("[comm]\nshed_policy = random\n", &error));
  EXPECT_NE(error.find("bad shed_policy 'random'"), std::string::npos);
  EXPECT_NE(error.find("oldest or newest"), std::string::npos);
  EXPECT_FALSE(parse_launch_config("[comm]\nweights_block_ms = -1\n", &error));
  EXPECT_NE(error.find("bad weights_block_ms"), std::string::npos);
  EXPECT_FALSE(parse_launch_config("[comm]\nweights_block_ms = 60001\n"));
  EXPECT_FALSE(parse_launch_config("[comm]\nbreaker_failures = 1025\n", &error));
  EXPECT_NE(error.find("bad breaker_failures"), std::string::npos);
  EXPECT_FALSE(parse_launch_config("[comm]\nbreaker_probe_ms = 0\n", &error));
  EXPECT_NE(error.find("bad breaker_probe_ms"), std::string::npos);
  EXPECT_FALSE(parse_launch_config("[comm]\nbreaker_probe_ms = 60001\n"));
}

TEST(ConfigFile, CommOverloadRejectsInconsistentWatermarks) {
  // Cross-field validation: a low watermark makes no sense without a high
  // one, and hysteresis requires low strictly below high.
  std::string error;
  EXPECT_FALSE(parse_launch_config(
      "[comm]\noverload_low_watermark = 8\n", &error));
  EXPECT_NE(error.find("overload_low_watermark requires overload_high_watermark"),
            std::string::npos);
  EXPECT_FALSE(parse_launch_config(
      "[comm]\noverload_high_watermark = 64\noverload_low_watermark = 64\n",
      &error));
  EXPECT_NE(error.find("must be below overload_high_watermark"),
            std::string::npos);
  EXPECT_FALSE(parse_launch_config(
      "[comm]\noverload_high_watermark = 64\noverload_low_watermark = 65\n"));
  // Equal-to-zero low with a bounded high is fine (resolves to high/2).
  const auto ok = parse_launch_config("[comm]\noverload_high_watermark = 64\n");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->deployment.overload.resolved_low(), 32u);
}

TEST(ConfigFile, FaultsSupervisionOverloadKnobs) {
  const std::string text = R"(
[faults]
supervision = on
suspect_grace_s = 1.5
respawn_min_interval_s = 2.0
)";
  std::string error;
  const auto config = parse_launch_config(text, &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_DOUBLE_EQ(config->deployment.supervision.suspect_grace_s, 1.5);
  EXPECT_DOUBLE_EQ(config->deployment.supervision.respawn_min_interval_s, 2.0);
  // Defaults preserve the legacy declare-immediately behaviour.
  const auto defaults = parse_launch_config("");
  ASSERT_TRUE(defaults.has_value());
  EXPECT_DOUBLE_EQ(defaults->deployment.supervision.suspect_grace_s, 0.0);
  EXPECT_DOUBLE_EQ(defaults->deployment.supervision.respawn_min_interval_s, 0.0);

  EXPECT_FALSE(parse_launch_config("[faults]\nsuspect_grace_s = -1\n", &error));
  EXPECT_NE(error.find("bad suspect_grace_s"), std::string::npos);
  EXPECT_FALSE(
      parse_launch_config("[faults]\nrespawn_min_interval_s = -0.5\n", &error));
  EXPECT_NE(error.find("bad respawn_min_interval_s"), std::string::npos);
}

TEST(ConfigFile, CodecSection) {
  const std::string text = R"(
[codec]
weights = delta
topk_fraction = 0.1
keyframe_every = 32
lazy_threshold = 0.05
max_staleness = 12
)";
  std::string error;
  const auto config = parse_launch_config(text, &error);
  ASSERT_TRUE(config.has_value()) << error;
  const WeightSyncConfig& codec = config->deployment.weight_sync;
  EXPECT_EQ(codec.codec, WeightCodec::kDeltaInt8);
  EXPECT_DOUBLE_EQ(codec.topk_fraction, 0.1);
  EXPECT_EQ(codec.keyframe_every, 32u);
  EXPECT_DOUBLE_EQ(codec.lazy_threshold, 0.05);
  EXPECT_EQ(codec.max_staleness, 12u);
}

TEST(ConfigFile, CodecSectionDefaultsToFp32) {
  const auto config = parse_launch_config("");
  ASSERT_TRUE(config.has_value());
  const WeightSyncConfig& codec = config->deployment.weight_sync;
  EXPECT_EQ(codec.codec, WeightCodec::kFp32);
  EXPECT_DOUBLE_EQ(codec.lazy_threshold, 0.0);  // lazy broadcast off
}

TEST(ConfigFile, CodecSectionAcceptsEveryCodecName) {
  for (const char* name : {"fp32", "fp16", "bf16", "int8", "delta", "topk"}) {
    std::string error;
    const auto config = parse_launch_config(
        std::string("[codec]\nweights = ") + name + "\n", &error);
    ASSERT_TRUE(config.has_value()) << name << ": " << error;
    EXPECT_STREQ(weight_codec_name(config->deployment.weight_sync.codec), name);
  }
}

TEST(ConfigFile, CodecSectionRejectsOutOfRangeValues) {
  // Exact bounds in every message — a bad codec config must fail loudly at
  // parse time, never fall back to fp32 mid-run.
  std::string error;
  EXPECT_FALSE(parse_launch_config("[codec]\nweights = fp64\n", &error));
  EXPECT_NE(error.find("bad weights codec 'fp64'"), std::string::npos);
  EXPECT_NE(error.find("fp32, fp16, bf16, int8, delta, or topk"),
            std::string::npos);
  EXPECT_FALSE(parse_launch_config("[codec]\ntopk_fraction = 0\n", &error));
  EXPECT_NE(error.find("bad topk_fraction (want >0 and <=0.5)"),
            std::string::npos);
  EXPECT_FALSE(parse_launch_config("[codec]\ntopk_fraction = 0.51\n"));
  EXPECT_FALSE(parse_launch_config("[codec]\ntopk_fraction = -0.1\n"));
  EXPECT_FALSE(parse_launch_config("[codec]\nkeyframe_every = 0\n", &error));
  EXPECT_NE(error.find("bad keyframe_every (want 1..100000)"), std::string::npos);
  EXPECT_FALSE(parse_launch_config("[codec]\nkeyframe_every = 100001\n"));
  EXPECT_FALSE(parse_launch_config("[codec]\nlazy_threshold = 1\n", &error));
  EXPECT_NE(error.find("bad lazy_threshold"), std::string::npos);
  EXPECT_FALSE(parse_launch_config("[codec]\nlazy_threshold = -0.01\n"));
  EXPECT_FALSE(parse_launch_config("[codec]\nmax_staleness = 0\n", &error));
  EXPECT_NE(error.find("bad max_staleness (want 1..100000)"), std::string::npos);
  EXPECT_FALSE(parse_launch_config("[codec]\nmax_staleness = 100001\n"));
  EXPECT_FALSE(parse_launch_config("[codec]\nbogus = 1\n", &error));
  EXPECT_NE(error.find("[codec]"), std::string::npos);
  // Error messages stay line-tagged like every other section.
  EXPECT_FALSE(parse_launch_config("\n\n[codec]\nweights = zstd\n", &error));
  EXPECT_NE(error.find("line 4"), std::string::npos);
}

TEST(ConfigFile, CommSectionRejectsBadValues) {
  std::string error;
  EXPECT_FALSE(
      parse_launch_config("[comm]\nrouter_shards = 0\n", &error).has_value());
  EXPECT_NE(error.find("router_shards"), std::string::npos);
  EXPECT_FALSE(
      parse_launch_config("[comm]\nrouter_shards = 65\n", &error).has_value());
  EXPECT_FALSE(
      parse_launch_config("[comm]\nbogus = 1\n", &error).has_value());
  EXPECT_NE(error.find("[comm]"), std::string::npos);
}

TEST(ConfigFile, RejectsConfigsThatWouldCrashTheRuntime) {
  // Each of these used to parse, then crash the runtime where its asserts
  // are compiled out: a null environment probe, an out-of-range broker
  // index, and a zero-capacity replay ring. The last two overflowed the
  // explorer total's int, or gave two explorers one 16-bit id.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"[algorithm]\nenv = Pong\n", "bad env 'Pong'"},
      {"[deployment]\nexplorers_per_machine = 1,1\nlearner_machine = 5\n",
       "learner_machine"},
      {"[algorithm]\nkind = dqn\nreplay_capacity = 0\n", "bad replay_capacity"},
      {"[deployment]\nexplorers_per_machine = 2147483647,1\n",
       "explorers_per_machine must total"},
      {"[deployment]\nexplorers_per_machine = 65537\n",
       "explorers_per_machine must total"},
  };
  for (const auto& [text, message] : cases) {
    std::string error;
    EXPECT_FALSE(parse_launch_config(text, &error)) << text;
    EXPECT_NE(error.find(message), std::string::npos) << text << " -> " << error;
  }
  // The learner may sit on any machine that exists, and every explorer id
  // up to the 16-bit limit is addressable.
  EXPECT_TRUE(parse_launch_config(
      "[deployment]\nexplorers_per_machine = 1,1\nlearner_machine = 1\n"));
  EXPECT_TRUE(parse_launch_config(
      "[deployment]\nexplorers_per_machine = 65535,1\n"));
}

TEST(ConfigFile, RejectsValuesThatWouldBeWrappedTruncatedOrNan) {
  // Values an earlier parser accepted and silently changed: negative
  // integers wrapped, overflow saturated or truncated to a narrower field,
  // fractions cast to integers, values that overflow once scaled or
  // narrowed, and NaN, which passes every < and > bound.
  const std::vector<std::tuple<std::string, std::string, std::string>> cases = {
      {"algorithm", "seed", "-1"},
      {"algorithm", "seed", "99999999999999999999999"},
      {"deployment", "explorers_per_machine", "-1"},
      {"deployment", "learner_machine", "65541"},
      {"algorithm", "epochs", "4294967296"},
      {"faults", "max_worker_restarts", "4294967297"},
      {"algorithm", "hidden", "-1"},
      {"deployment", "trace_capacity", "-1"},
      {"comm", "breaker_probe_ms", "0.5"},
      {"comm", "weights_block_ms", "0.5"},
      {"comm", "weights_block_ms", "nan"},
      {"comm", "breaker_probe_ms", "nan"},
      {"profile", "hz", "nan"},
      {"profile", "hz", "inf"},
      {"codec", "topk_fraction", "nan"},
      {"codec", "lazy_threshold", "nan"},
      {"algorithm", "lr", "nan"},
      {"faults", "drop_prob", "2"},
      {"faults", "drop_prob", "-0.5"},
      {"algorithm", "lr", "1e39"},  // past float's range
      {"deployment", "compression_threshold_kb", "18014398509481984"},  // * 1024
      {"faults", "delay_ms", "1e13"},  // 1e19 ns overflows int64
  };
  for (const auto& [section, key, value] : cases) {
    const std::string text = "[" + section + "]\n" + key + " = " + value + "\n";
    std::string error;
    EXPECT_FALSE(parse_launch_config(text, &error)) << text;
    EXPECT_EQ(error.rfind("line 2: bad " + key, 0), 0u) << text << " -> " << error;
  }
}

TEST(ConfigFile, EveryKeyButPathsRejectsNan) {
  const std::set<std::string> paths = {"stats_csv", "chrome_trace", "prometheus_dump",
                                       "checkpoint", "profile_json"};
  std::size_t paths_seen = 0;
  for (const auto& [section, key] : launch_config_keys()) {
    const std::string text = "[" + section + "]\n" + key + " = nan\n";
    std::string error;
    if (paths.count(key) != 0) {
      ++paths_seen;
      EXPECT_TRUE(parse_launch_config(text, &error)) << text << " -> " << error;
      continue;
    }
    EXPECT_FALSE(parse_launch_config(text, &error)) << text;
    EXPECT_EQ(error.rfind("line 2: bad " + key, 0), 0u) << text << " -> " << error;
  }
  EXPECT_EQ(paths_seen, paths.size());
}

std::string read_source_file(const std::string& relative) {
  std::ifstream file(std::string(XT_SOURCE_DIR) + "/" + relative);
  std::stringstream contents;
  contents << file.rdbuf();
  return contents.str();
}

using KeySet = std::set<std::pair<std::string, std::string>>;

/// The `[section] key` pairs an ini text sets.
KeySet keys_set_by(const std::string& ini) {
  KeySet keys;
  std::stringstream lines(ini);
  std::string section;
  for (std::string line; std::getline(lines, line);) {
    line = line.substr(0, line.find('#'));
    line.erase(0, line.find_first_not_of(" \t"));
    if (line.starts_with('[')) {
      section = line.substr(1, line.find(']') - 1);
    } else if (line.find('=') != std::string::npos) {
      keys.emplace(section, line.substr(0, line.find_first_of(" \t=")));
    }
  }
  return keys;
}

TEST(ConfigFile, ReadmeReferenceAndShippedConfigsMatchTheParser) {
  // README's "Configuration reference" block lists exactly the parser's
  // keys and parses; README's other ini examples and every configs/*.conf
  // parse too.
  const std::string readme = read_source_file("README.md");
  const std::size_t reference_at = readme.find("## Configuration reference");
  ASSERT_NE(reference_at, std::string::npos);
  std::string reference;
  const std::string fence = "```ini\n";
  for (std::size_t at = readme.find(fence); at != std::string::npos;
       at = readme.find(fence, at + 1)) {
    const std::size_t begin = at + fence.size();
    const std::size_t end = readme.find("```", begin);
    ASSERT_NE(end, std::string::npos);
    const std::string block = readme.substr(begin, end - begin);
    if (reference.empty() && at > reference_at) reference = block;
    std::string error;
    EXPECT_TRUE(parse_launch_config(block, &error))
        << "README ini block at offset " << at << ": " << error;
  }

  const auto table = launch_config_keys();
  const KeySet parser_keys(table.begin(), table.end());
  EXPECT_EQ(parser_keys.size(), table.size()) << "a key is declared twice";
  EXPECT_EQ(keys_set_by(reference), parser_keys);

  const std::string configs_dir = std::string(XT_SOURCE_DIR) + "/configs";
  int configs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(configs_dir)) {
    if (entry.path().extension() != ".conf") continue;
    ++configs;
    std::string error;
    EXPECT_TRUE(load_launch_config(entry.path().string(), &error))
        << entry.path() << ": " << error;
  }
  EXPECT_GT(configs, 0);
}

}  // namespace
}  // namespace xt
