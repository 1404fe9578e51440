// Overload gate (DESIGN.md §10): drive the comm core well past paced-link
// capacity with fault injection and prove that overload is a *survivable*
// state, not a collapse:
//
//  - 512 simulated explorers (3 driver machines around one learner machine)
//    offer ~1.5x each paced link's byte budget in experience while a live
//    control plane (heartbeats toward the center controller) rides the same
//    links. Every message is its own wire frame. Stats records also go to
//    the controller, but they are experience class, so they are shed like
//    rollouts; the report prints the two rates apart.
//  - Every comm queue is bounded by the `[comm]` overload config, so the
//    excess is shed (oldest-first) instead of accumulating: queue depth is
//    sampled throughout the run and must stay at the watermark, not grow.
//  - A real Supervisor watches the driver sources through the same
//    congestion-aware suspect machinery the runtime uses. Nothing dies in
//    this bench, so ANY respawn is a false positive — the gate is zero.
//  - Control-class p99 delivery latency must stay under the supervision
//    timeout: heartbeats jump every priority lane, so even under sustained
//    overload
//    the failure detector keeps seeing fresh beats.
//
// Results land in BENCH_overload.json; CI diffs them against the checked-in
// baseline via tools/perf_diff (control_p99_ms is lower-better, the
// delivered rates higher-better).

#include "bench_util.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>

#include "comm/broker.h"
#include "comm/endpoint.h"
#include "common/clock.h"
#include "framework/supervisor.h"
#include "netsim/fabric.h"
#include "obs/catalog.h"

namespace {

using namespace xt;
using namespace xt::bench;

// The offered per-explorer mix: bulk experience toward the learner plus a
// liveness control plane toward the center controller. At the default 512
// explorers each driver machine's pipe carries ~171 explorers' rollouts:
// ~7.1 MB/s offered against a 5 MB/s paced link — sustained ~1.5x overload
// on the experience plane, every run, not just on bursts.
constexpr double kRolloutsPerExplorerPerSec = 10.0;
constexpr double kHeartbeatsPerExplorerPerSec = 10.0;
constexpr double kStatsPerExplorerPerSec = 10.0;
constexpr std::size_t kRolloutBytes = 4096;
constexpr std::size_t kStatsBytes = 256;
constexpr std::size_t kHeartbeatBytes = 16;
constexpr int kDriverMachines = 3;

// The paced link: 5 MB/s per pipe with 100 us propagation — well under the
// ~7.1 MB/s of experience each driver machine offers.
constexpr double kLinkBandwidth = 5e6;
constexpr std::int64_t kLinkLatencyNs = 100'000;

// [comm] overload config under test (watermarks in messages / frames).
constexpr std::size_t kHighWatermark = 256;
constexpr std::size_t kLowWatermark = 64;

// Supervision: same shape the chaos tests use. The p99 gate is the timeout.
constexpr double kHeartbeatTimeoutS = 0.5;

struct OverloadResult {
  int explorers = 0;
  double control_p99_ms = 0.0;        ///< heartbeat created -> controller
  double delivered_control_per_s = 0.0;
  double delivered_experience_per_s = 0.0;  ///< rollouts + stats
  double delivered_rollouts_per_s = 0.0;
  double delivered_stats_per_s = 0.0;
  std::uint64_t messages_shed = 0;    ///< broker queues (router + inbox)
  std::uint64_t frames_shed = 0;      ///< pipe transmit queues
  std::size_t max_queue_depth = 0;    ///< deepest comm queue ever sampled
  std::uint64_t false_respawns = 0;   ///< supervisor restarts (must be 0)
  std::uint64_t suspects = 0;         ///< silence episodes ridden out
  std::uint64_t faults_injected = 0;
};

/// One machine's worth of simulated explorers, paced like the Fig. 11 sweep.
void driver_loop(Broker& broker, std::uint16_t machine, int explorers,
                 const NodeId& learner, const NodeId& controller,
                 const std::atomic<bool>& stop) {
  const Payload rollout = make_payload(Bytes(kRolloutBytes, 1));
  const Payload stats = make_payload(Bytes(kStatsBytes, 2));
  const Payload beat = make_payload(Bytes(kHeartbeatBytes, 3));
  const NodeId src = explorer_id(machine, 0);
  double due_rollout = 0.0;
  double due_beat = 0.0;
  double due_stats = 0.0;
  std::int64_t last = now_ns();
  while (!stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const std::int64_t now = now_ns();
    const double dt = static_cast<double>(now - last) * 1e-9;
    last = now;
    due_rollout += explorers * kRolloutsPerExplorerPerSec * dt;
    due_beat += explorers * kHeartbeatsPerExplorerPerSec * dt;
    due_stats += explorers * kStatsPerExplorerPerSec * dt;
    // After a scheduler stall, send at most 100 ms of backlog in one burst.
    due_rollout = std::min(due_rollout,
                           explorers * kRolloutsPerExplorerPerSec * 0.1 + 1.0);
    due_beat = std::min(due_beat,
                        explorers * kHeartbeatsPerExplorerPerSec * 0.1 + 1.0);
    due_stats = std::min(due_stats,
                         explorers * kStatsPerExplorerPerSec * 0.1 + 1.0);
    for (; due_rollout >= 1.0; due_rollout -= 1.0) {
      submit_direct(broker, src, learner, MsgType::kRollout, rollout);
    }
    for (; due_beat >= 1.0; due_beat -= 1.0) {
      submit_direct(broker, src, controller, MsgType::kHeartbeat, beat);
    }
    for (; due_stats >= 1.0; due_stats -= 1.0) {
      submit_direct(broker, src, controller, MsgType::kStats, stats);
    }
  }
}

OverloadResult run_overload_point(int explorers, double warmup_s,
                                  double measure_s) {
  OverloadConfig overload;
  overload.high_watermark = kHighWatermark;
  overload.low_watermark = kLowWatermark;

  // One registry for every machine, as in the runtime: the pipes' shed and
  // fault counters are read from it below.
  MetricsRegistry metrics;
  Broker::Options options;
  options.overload = overload;
  options.metrics = &metrics;
  std::vector<std::unique_ptr<Broker>> brokers;
  for (std::uint16_t m = 0; m < kDriverMachines + 1; ++m) {
    brokers.push_back(std::make_unique<Broker>(m, options));
  }

  LinkConfig link{kLinkBandwidth, kLinkLatencyNs, 64};
  link.overload = overload;
  link.faults.seed = 29;
  link.faults.drop_probability = 0.02;
  link.faults.corrupt_probability = 0.01;
  Fabric fabric(link);
  for (std::uint16_t m = 1; m <= kDriverMachines; ++m) {
    fabric.connect(*brokers[0], *brokers[m]);  // star around the learner
  }

  Endpoint learner(learner_id(0), *brokers[0]);
  Endpoint controller(controller_id(0), *brokers[0]);

  // A real Supervisor watches the three driver sources. The respawn
  // callback only counts: with every source alive and beating for the whole
  // run, any invocation is a false positive.
  SupervisionConfig sup;
  sup.enabled = true;
  sup.heartbeat_every_s = 1.0 / kHeartbeatsPerExplorerPerSec;
  sup.heartbeat_timeout_s = kHeartbeatTimeoutS;
  sup.suspect_grace_s = 0.5;
  sup.respawn_min_interval_s = 1.0;
  Supervisor supervisor(sup, metrics);
  std::atomic<std::uint64_t> false_respawns{0};
  for (std::uint16_t m = 1; m <= kDriverMachines; ++m) {
    supervisor.watch(explorer_id(m, 0), [&false_respawns](std::uint32_t) {
      false_respawns.fetch_add(1);
      return true;
    });
  }
  supervisor.set_congestion_probe([&] {
    for (const auto& broker : brokers) {
      for (const auto& [queue, depth] : broker->queue_depths()) {
        if (depth >= kHighWatermark) return true;
      }
    }
    for (const PacedPipe* pipe : fabric.pipes()) {
      if (pipe->queued_frames() >= kHighWatermark) return true;
    }
    return false;
  });

  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};

  // Learner side: drain bulk experience as fast as it arrives.
  std::thread learner_drain([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      learner.receive_for(std::chrono::milliseconds(50));
    }
  });

  // Controller side: the failure-detector loop — note liveness by message
  // *creation* time, poll the supervisor, and record control-plane delivery
  // latency while the measurement window is open.
  std::vector<double> control_latencies_ms;
  std::thread controller_drain([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto msg = controller.receive_for(std::chrono::milliseconds(5));
      supervisor.poll();
      if (!msg) continue;
      supervisor.note_heartbeat(msg->header.src, msg->header.created_ns);
      if (msg->header.type == MsgType::kHeartbeat &&
          measuring.load(std::memory_order_relaxed)) {
        control_latencies_ms.push_back(
            static_cast<double>(now_ns() - msg->header.created_ns) / 1e6);
      }
    }
  });

  // Depth monitor: the bounded-memory gate. Samples every comm queue the
  // overload config is supposed to bound.
  std::atomic<std::size_t> max_depth{0};
  std::thread monitor([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::size_t deepest = 0;
      for (const auto& broker : brokers) {
        for (const auto& [queue, depth] : broker->queue_depths()) {
          deepest = std::max(deepest, depth);
        }
      }
      for (const PacedPipe* pipe : fabric.pipes()) {
        deepest = std::max(deepest, pipe->queued_frames());
      }
      std::size_t seen = max_depth.load(std::memory_order_relaxed);
      while (deepest > seen &&
             !max_depth.compare_exchange_weak(seen, deepest)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  const std::vector<int> per_machine = [&] {
    std::vector<int> out(kDriverMachines, explorers / kDriverMachines);
    for (int i = 0; i < explorers % kDriverMachines; ++i) ++out[i];
    return out;
  }();
  std::vector<std::thread> drivers;
  for (std::uint16_t m = 1; m <= kDriverMachines; ++m) {
    drivers.emplace_back(driver_loop, std::ref(*brokers[m]), m,
                         per_machine[m - 1], learner.id(), controller.id(),
                         std::cref(stop));
  }

  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(warmup_s * 1e3)));
  const std::uint64_t learner_before = learner.messages_received();
  const std::uint64_t controller_before = controller.messages_received();
  measuring.store(true);
  const std::int64_t t0 = now_ns();
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(measure_s * 1e3)));
  measuring.store(false);
  const std::uint64_t learner_after = learner.messages_received();
  const std::uint64_t controller_after = controller.messages_received();
  const double seconds = static_cast<double>(now_ns() - t0) * 1e-9;

  stop.store(true);
  for (auto& driver : drivers) driver.join();
  monitor.join();
  learner_drain.join();
  controller_drain.join();
  fabric.stop();
  learner.stop();
  controller.stop();

  OverloadResult result;
  result.explorers = explorers;
  result.false_respawns = false_respawns.load();
  result.suspects = metrics.total(metric::xt_workers_suspected_total);
  result.max_queue_depth = max_depth.load();
  for (const auto& broker : brokers) {
    result.messages_shed += broker->shed_messages();
    broker->stop();
  }
  result.frames_shed = metrics.total(metric::xt_frames_shed_total);
  result.faults_injected = metrics.total(metric::xt_faults_injected_total);
  std::sort(control_latencies_ms.begin(), control_latencies_ms.end());
  if (!control_latencies_ms.empty()) {
    const auto idx = static_cast<std::size_t>(
        0.99 * static_cast<double>(control_latencies_ms.size() - 1));
    result.control_p99_ms = control_latencies_ms[idx];
    result.delivered_control_per_s =
        static_cast<double>(control_latencies_ms.size()) / seconds;
  }
  // The learner receives rollouts; the controller receives heartbeats
  // (control class) plus stats (experience class).
  result.delivered_rollouts_per_s =
      static_cast<double>(learner_after - learner_before) / seconds;
  result.delivered_stats_per_s =
      static_cast<double>(controller_after - controller_before) / seconds -
      result.delivered_control_per_s;
  result.delivered_experience_per_s =
      result.delivered_rollouts_per_s + result.delivered_stats_per_s;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  int explorers = 512;
  double warmup_s = 1.0;
  double measure_s = 3.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--explorers") == 0 && i + 1 < argc) {
      explorers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--measure-s") == 0 && i + 1 < argc) {
      measure_s = std::atof(argv[++i]);
    }
  }
  if (json_path == nullptr) json_path = "BENCH_overload.json";

  banner("Overload gate: priority lanes + bounded backpressure past link "
         "capacity");
  std::printf(
      "\n%d explorers over %d driver machines, link %.0f MB/s + %.0f us "
      "(~1.5x byte overload per pipe), drop 2%% corrupt 1%%, watermarks %zu/%zu\n",
      explorers, kDriverMachines, kLinkBandwidth / 1e6, kLinkLatencyNs / 1e3,
      kHighWatermark, kLowWatermark);

  const OverloadResult r = run_overload_point(explorers, warmup_s, measure_s);

  std::printf("\n%26s %14.1f\n", "control p99 (ms)", r.control_p99_ms);
  std::printf("%26s %14.0f\n", "control delivered/s", r.delivered_control_per_s);
  std::printf("%26s %14.0f\n", "experience delivered/s",
              r.delivered_experience_per_s);
  std::printf("%26s %14.0f\n", "rollouts delivered/s",
              r.delivered_rollouts_per_s);
  std::printf("%26s %14.0f\n", "stats delivered/s", r.delivered_stats_per_s);
  std::printf("%26s %14llu\n", "messages shed",
              static_cast<unsigned long long>(r.messages_shed));
  std::printf("%26s %14llu\n", "frames shed",
              static_cast<unsigned long long>(r.frames_shed));
  std::printf("%26s %14zu\n", "max queue depth", r.max_queue_depth);
  std::printf("%26s %14llu\n", "suspects ridden out",
              static_cast<unsigned long long>(r.suspects));
  std::printf("%26s %14llu\n", "false respawns",
              static_cast<unsigned long long>(r.false_respawns));
  std::printf("%26s %14llu\n", "faults injected",
              static_cast<unsigned long long>(r.faults_injected));

  section("overload gates");
  shape_check("zero false-positive respawns under sustained overload",
              r.false_respawns == 0);
  shape_check("queue depth stayed bounded (<= high watermark + slack)",
              r.max_queue_depth <= kHighWatermark + 64);
  shape_check("control-class p99 under the supervision timeout",
              r.control_p99_ms > 0.0 &&
                  r.control_p99_ms < kHeartbeatTimeoutS * 1e3);
  shape_check("overload actually engaged: experience was shed",
              r.messages_shed + r.frames_shed > 0);
  shape_check("experience still flows (graceful degradation, not collapse)",
              r.delivered_experience_per_s > 0.0);
  shape_check("fault injection engaged on the paced links",
              r.faults_injected > 0);

  const std::vector<JsonField> fields = {{"high_watermark", kHighWatermark},
                                         {"low_watermark", kLowWatermark}};
  const std::vector<JsonField> entry = {
      {"name", "overload"},
      {"explorers", r.explorers},
      {"control_p99_ms", r.control_p99_ms},
      {"delivered_control_per_s", r.delivered_control_per_s},
      {"delivered_experience_per_s", r.delivered_experience_per_s},
  };
  if (!write_artifact(json_path, "bench_overload", fields, {entry})) return 1;

  return finish("bench_overload");
}
