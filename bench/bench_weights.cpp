// Weight-codec gate (DESIGN.md §11): how much wire traffic does each weight
// broadcast codec save, at what latency and fidelity cost, and does training
// still converge on the compressed weights?
//
//  - Part A (microbench): encode+decode a realistically sized MLP weight
//    blob through every codec; report encode/decode latency, compression
//    ratio and worst-case round-trip error.
//  - Part B (end to end): an IMPALA run per codec with every explorer on the
//    far side of the paper's 118.04 MB/s NIC (Fig. 11's layout, shrunk).
//    Reports bytes-on-wire vs the fp32-equivalent publish volume, the p99
//    learner-publish -> explorer-apply latency, and the final episode return
//    against the fp32 reference. A last run exercises the LAPG-style lazy
//    broadcast and must actually skip versions.
//
// Results land in BENCH_weights.json; CI's codec-smoke job diffs them
// against the checked-in baseline via tools/perf_diff (`*_ratio` is
// higher-better, `*_ms` lower-better, returns are informational).

#include "bench_util.h"

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "compress/weight_codec.h"
#include "framework/runtime.h"
#include "nn/mlp.h"

namespace {

using namespace xt;
using namespace xt::bench;

// ---------------------------------------------------------------------------
// Part A: stateless codec microbench.
// ---------------------------------------------------------------------------

struct MicroResult {
  double encode_ms = 0.0;
  double decode_ms = 0.0;
  double compression_ratio = 0.0;
  double max_abs_error = 0.0;
};

std::vector<float> blob_floats(const Bytes& blob) {
  auto net = nn::Mlp::deserialize(blob);
  std::vector<float> out;
  if (!net) return out;
  for (nn::Matrix* m : net->parameters()) {
    out.insert(out.end(), m->data().begin(), m->data().end());
  }
  return out;
}

MicroResult run_micro(WeightCodec codec, const Bytes& blob, const Bytes& base,
                      int reps) {
  WeightSyncConfig config;
  config.codec = codec;
  config.topk_fraction = 0.01;
  const bool keyframe = !weight_codec_uses_base(codec);
  MicroResult result;
  const std::vector<float> truth = blob_floats(blob);
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch encode_clock;
    const auto frame = encode_weight_frame(blob, 2, config, keyframe,
                                           keyframe ? nullptr : &base, 1);
    result.encode_ms += encode_clock.elapsed_ms();
    if (!frame) continue;
    Stopwatch decode_clock;
    const auto decoded =
        decode_weight_frame(frame->payload, keyframe ? nullptr : &base);
    result.decode_ms += decode_clock.elapsed_ms();
    if (rep == 0 && decoded) {
      result.compression_ratio = static_cast<double>(blob.size()) /
                                 static_cast<double>(frame->payload.size());
      const std::vector<float> round = blob_floats(*decoded);
      for (std::size_t i = 0; i < truth.size() && i < round.size(); ++i) {
        result.max_abs_error =
            std::max(result.max_abs_error,
                     std::fabs(static_cast<double>(truth[i]) - round[i]));
      }
    }
  }
  result.encode_ms /= reps;
  result.decode_ms /= reps;
  return result;
}

// ---------------------------------------------------------------------------
// Part B: end-to-end IMPALA across the paper's NIC, one run per codec.
// ---------------------------------------------------------------------------

struct E2eResult {
  double wire_compression_ratio = 0.0;  ///< fp32-equivalent / bytes on wire
  double broadcast_p99_ms = 0.0;        ///< learner publish -> explorer apply
  double avg_return = 0.0;
  std::uint64_t broadcasts = 0;
  std::uint64_t keyframes = 0;
  std::uint64_t skipped = 0;
  std::uint64_t decode_failures = 0;
};

E2eResult run_e2e(const WeightSyncConfig& weight_sync, std::uint64_t steps) {
  AlgoSetup setup;
  setup.kind = AlgoKind::kImpala;
  setup.env_name = "CartPole";
  setup.seed = 21;
  setup.impala.hidden = {64, 64};
  setup.impala.fragment_len = 50;

  DeploymentConfig deployment;
  deployment.explorers_per_machine = {0, 4};  // every broadcast crosses the NIC
  deployment.learner_machine = 0;
  deployment.max_steps_consumed = steps;
  deployment.max_seconds = 60.0;
  deployment.link = LinkConfig{kNicBandwidth, 100'000, 64};
  deployment.weight_sync = weight_sync;

  XingTianRuntime runtime(setup, deployment);
  const RunReport report = runtime.run();

  E2eResult result;
  result.avg_return = report.avg_episode_return;
  result.broadcast_p99_ms = report.weights_broadcast_p99_ms;
  result.broadcasts = report.weight_broadcasts;
  result.keyframes = report.weights_keyframes;
  result.skipped = report.weights_skipped;
  result.decode_failures = report.weights_decode_failures;
  if (report.weights_wire_bytes > 0) {
    result.wire_compression_ratio =
        static_cast<double>(report.weights_raw_bytes) /
        static_cast<double>(report.weights_wire_bytes);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  std::uint64_t steps = 4'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
      steps = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    }
  }
  if (json_path == nullptr) json_path = "BENCH_weights.json";

  banner("Weight codecs: bytes on the wire vs broadcast latency vs fidelity");

  // Part A blob: a mid-sized policy net (~84k parameters, ~330 KB fp32) and
  // a slightly-updated successor as the delta/top-k base.
  Rng rng(17);
  nn::Mlp net(64,
              {{256, nn::Activation::kRelu},
               {256, nn::Activation::kRelu},
               {6, nn::Activation::kIdentity}},
              rng);
  const Bytes base = net.serialize();
  for (nn::Matrix* m : net.parameters()) {
    for (float& v : m->data()) {
      v += static_cast<float>(rng.uniform(-0.01, 0.01));
    }
  }
  const Bytes blob = net.serialize();

  section("Part A: codec microbench (~330 KB blob, mean of 10 reps)");
  std::printf("%8s %12s %12s %14s %14s\n", "codec", "encode ms", "decode ms",
              "ratio", "max |err|");
  std::vector<MicroResult> micro(kWeightCodecCount);
  for (std::uint8_t c = 0; c < kWeightCodecCount; ++c) {
    const auto codec = static_cast<WeightCodec>(c);
    micro[c] = run_micro(codec, blob, base, 10);
    std::printf("%8s %12.3f %12.3f %14.2f %14.3g\n", weight_codec_name(codec),
                micro[c].encode_ms, micro[c].decode_ms,
                micro[c].compression_ratio, micro[c].max_abs_error);
  }

  section("Part B: IMPALA, 4 remote explorers over the 118 MB/s NIC");
  std::printf("%10s %10s %14s %12s %12s %10s %10s\n", "codec", "ratio",
              "bcast p99 ms", "return", "broadcasts", "keyframes", "skipped");
  std::vector<E2eResult> e2e(kWeightCodecCount);
  for (std::uint8_t c = 0; c < kWeightCodecCount; ++c) {
    WeightSyncConfig weight_sync;
    weight_sync.codec = static_cast<WeightCodec>(c);
    e2e[c] = run_e2e(weight_sync, steps);
    std::printf("%10s %10.2f %14.3f %12.2f %12llu %10llu %10llu\n",
                weight_codec_name(static_cast<WeightCodec>(c)),
                e2e[c].wire_compression_ratio, e2e[c].broadcast_p99_ms,
                e2e[c].avg_return,
                static_cast<unsigned long long>(e2e[c].broadcasts),
                static_cast<unsigned long long>(e2e[c].keyframes),
                static_cast<unsigned long long>(e2e[c].skipped));
  }

  // Lazy broadcast: fp16 plus a deliberately coarse threshold. The point is
  // the *mechanism* (small updates skipped, staleness bounded), not tuning.
  WeightSyncConfig lazy;
  lazy.codec = WeightCodec::kFp16;
  lazy.lazy_threshold = 0.3;
  lazy.max_staleness = 8;
  const E2eResult lazy_result = run_e2e(lazy, steps);
  std::printf("%10s %10.2f %14.3f %12.2f %12llu %10llu %10llu\n", "lazy-fp16",
              lazy_result.wire_compression_ratio, lazy_result.broadcast_p99_ms,
              lazy_result.avg_return,
              static_cast<unsigned long long>(lazy_result.broadcasts),
              static_cast<unsigned long long>(lazy_result.keyframes),
              static_cast<unsigned long long>(lazy_result.skipped));

  section("codec gates");
  const E2eResult& fp32 = e2e[static_cast<std::uint8_t>(WeightCodec::kFp32)];
  bool any_3x = false;
  std::uint64_t total_decode_failures = lazy_result.decode_failures;
  for (std::uint8_t c = 0; c < kWeightCodecCount; ++c) {
    if (e2e[c].wire_compression_ratio >= 3.0) any_3x = true;
    total_decode_failures += e2e[c].decode_failures;
  }
  shape_check(">=3x bytes-on-wire reduction for at least one codec vs fp32",
              any_3x);
  shape_check("fp32 reference run converged (positive final return)",
              fp32.avg_return > 0.0);
  for (std::uint8_t c = 1; c < kWeightCodecCount; ++c) {
    shape_check(std::string("convergence within tolerance on ") +
                    weight_codec_name(static_cast<WeightCodec>(c)) +
                    " (>= 0.4x the fp32 reference return)",
                e2e[c].avg_return >= 0.4 * fp32.avg_return);
  }
  shape_check("every codec actually broadcast weights",
              [&] {
                for (const E2eResult& r : e2e) {
                  if (r.broadcasts == 0) return false;
                }
                return true;
              }());
  shape_check("lazy broadcast skipped at least one version",
              lazy_result.skipped > 0);
  shape_check("lazy run still converged on stale-bounded weights",
              lazy_result.avg_return >= 0.4 * fp32.avg_return);
  shape_check("no decode failures in any healthy run",
              total_decode_failures == 0);

  std::vector<std::vector<JsonField>> entries;
  for (std::uint8_t c = 0; c < kWeightCodecCount; ++c) {
    const std::string name = weight_codec_name(static_cast<WeightCodec>(c));
    entries.push_back({{"name", "micro_" + name},
                       {"encode_ms", micro[c].encode_ms},
                       {"decode_ms", micro[c].decode_ms},
                       {"compression_ratio", micro[c].compression_ratio},
                       {"max_abs_error", micro[c].max_abs_error}});
  }
  for (std::uint8_t c = 0; c < kWeightCodecCount; ++c) {
    const std::string name = weight_codec_name(static_cast<WeightCodec>(c));
    entries.push_back({{"name", "e2e_" + name},
                       {"wire_compression_ratio", e2e[c].wire_compression_ratio},
                       {"broadcast_p99_ms", e2e[c].broadcast_p99_ms},
                       {"avg_return", e2e[c].avg_return},
                       {"broadcasts", e2e[c].broadcasts},
                       {"keyframes", e2e[c].keyframes}});
  }
  entries.push_back({{"name", "lazy_fp16"},
                     {"wire_compression_ratio", lazy_result.wire_compression_ratio},
                     {"skipped", lazy_result.skipped},
                     {"avg_return", lazy_result.avg_return}});
  const std::vector<JsonField> fields = {{"steps", steps}};
  if (!write_artifact(json_path, "bench_weights", fields, entries)) return 1;

  return finish("bench_weights");
}
