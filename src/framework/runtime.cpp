#include "framework/runtime.h"

#include <algorithm>
#include <cassert>
#include <fstream>
#include <sstream>

#include "common/clock.h"
#include "common/log.h"
#include "common/thread_pool.h"
#include "common/thread_util.h"
#include "envs/registry.h"
#include "framework/checkpoint.h"
#include "obs/exporters.h"
#include "serial/record.h"

namespace xt {
namespace {

/// Mean across every histogram of the family (e.g. all machines' labeled
/// `xt_explorer_rollout_ms{machine="..."}` series): sum of sums over sum of
/// counts. 0 when the family has no observations.
double family_mean(const MetricsRegistry& registry, const std::string& family) {
  double sum = 0.0;
  std::uint64_t count = 0;
  for (const auto& [name, hist] : registry.histograms()) {
    if (name.compare(0, family.size(), family) != 0) continue;
    if (name.size() > family.size() && name[family.size()] != '{') continue;
    sum += hist->sum();
    count += hist->count();
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

/// Compact top-like suffix for the periodic stats line: the three busiest
/// threads and the three deepest queues from the latest saturation tick.
std::string profile_stats_suffix(
    const std::vector<ThreadProfile>& profiles,
    std::vector<std::pair<std::string, double>> depths) {
  std::ostringstream out;
  out << " busy=[";
  std::size_t shown = 0;
  for (const ThreadProfile& thread : profiles) {  // already busiest-first
    if (shown == 3) break;
    if (thread.samples == 0) continue;
    if (shown > 0) out << ' ';
    out << thread.name << ':' << static_cast<int>(thread.busy_pct + 0.5) << '%';
    ++shown;
  }
  out << "] deep=[";
  std::sort(depths.begin(), depths.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (std::size_t i = 0; i < depths.size() && i < 3; ++i) {
    if (i > 0) out << ' ';
    out << depths[i].first << ':' << depths[i].second;
  }
  out << ']';
  return out.str();
}

/// Quantile across every histogram of a family, merged bucket by bucket
/// (the family members share the default bucket layout; any member with a
/// different layout is skipped rather than mis-merged). Mirrors
/// Histogram::quantile's within-bucket linear interpolation.
double family_quantile(const MetricsRegistry& registry, const std::string& family,
                       double q) {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;
  for (const auto& [name, hist] : registry.histograms()) {
    if (name.compare(0, family.size(), family) != 0) continue;
    if (name.size() > family.size() && name[family.size()] != '{') continue;
    const auto bucket_counts = hist->bucket_counts();
    if (bounds.empty()) {
      bounds = hist->bounds();
      counts.assign(bucket_counts.size(), 0);
    }
    if (bucket_counts.size() != counts.size()) continue;
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += bucket_counts[i];
    total += hist->count();
  }
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (static_cast<double>(seen + counts[i]) < target) {
      seen += counts[i];
      continue;
    }
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double hi = i < bounds.size() ? bounds[i] : lo * 2.0;
    const double within =
        (target - static_cast<double>(seen)) / static_cast<double>(counts[i]);
    return lo + within * (hi - lo);
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

/// Sum across every counter of the family (e.g. all links' labeled
/// `xt_faults_injected_total{link="...",kind="..."}` series).
std::uint64_t family_total(const MetricsRegistry& registry,
                           const std::string& family) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : registry.counters()) {
    if (name.compare(0, family.size(), family) != 0) continue;
    if (name.size() > family.size() && name[family.size()] != '{') continue;
    total += value;
  }
  return total;
}

}  // namespace

XingTianRuntime::XingTianRuntime(AlgoSetup setup, DeploymentConfig config)
    : setup_(std::move(setup)), config_(std::move(config)) {
  const auto n_machines = static_cast<std::uint16_t>(config_.explorers_per_machine.size());
  assert(n_machines >= 1);
  assert(config_.learner_machine < n_machines);

  // Size the shared NN-kernel pool before any worker thread can touch a
  // matmul. Process-wide by design: one pool serves every explorer and the
  // learner instead of one pool per worker oversubscribing the host.
  set_compute_threads(config_.compute_threads);

  // Per-runtime telemetry: private registry + trace ring, injected into
  // every broker below so concurrent runtimes (tests, PBT populations) do
  // not share metric state through the process globals.
  metrics_ = std::make_unique<MetricsRegistry>();
  trace_ = std::make_unique<TraceCollector>(config_.obs.trace_capacity);
  if (config_.obs.tracing) trace_->enable();
  config_.broker.metrics = metrics_.get();
  config_.broker.trace = trace_.get();

  // `[comm]` overload policy: the one config drives every bounded stage —
  // broker router/inbox queues, endpoint buffers, paced pipes, and (only
  // when watermarks are actually set) the reliable links' circuit breakers.
  // Unbounded by default, which leaves legacy configs behaviourally
  // untouched.
  config_.broker.overload = config_.overload;
  config_.link.overload = config_.overload;
  if (config_.overload.bounded()) {
    config_.reliability.breaker_failures = config_.overload.breaker_failures;
    config_.reliability.breaker_probe_ms = config_.overload.breaker_probe_ms;
  }

  // Probe the environment once for network sizing.
  auto probe = make_environment(setup_.env_name);
  assert(probe && "unknown environment name");
  obs_dim_ = probe->observation_dim();
  n_actions_ = probe->action_count();
  const std::size_t obs_dim = obs_dim_;
  const std::int32_t n_actions = n_actions_;

  // One broker per machine; data fabric between all machine pairs (the
  // learner's machine is the hot center; stats also flow to machine 0).
  for (std::uint16_t m = 0; m < n_machines; ++m) {
    brokers_.push_back(std::make_unique<Broker>(m, config_.broker));
  }
  fabric_ = std::make_unique<Fabric>(config_.link, config_.reliability);
  for (std::uint16_t a = 0; a < n_machines; ++a) {
    for (std::uint16_t b = a + 1; b < n_machines; ++b) {
      fabric_->connect(*brokers_[a], *brokers_[b]);
    }
  }

  controller_id_ = controller_id(0);
  learner_id_ = learner_id(config_.learner_machine);

  controller_endpoint_ = std::make_unique<Endpoint>(controller_id_, *brokers_[0]);

  // Explorer ids: global index, resident machine from the deployment map.
  std::uint32_t global_index = 0;
  for (std::uint16_t m = 0; m < n_machines; ++m) {
    for (int i = 0; i < config_.explorers_per_machine[m]; ++i) {
      explorer_ids_.push_back(explorer_id(m, static_cast<std::uint16_t>(global_index)));
      ++global_index;
    }
  }

  learner_ = std::make_unique<LearnerProcess>(
      learner_id_, *brokers_[config_.learner_machine],
      make_algorithm(setup_, obs_dim, n_actions), explorer_ids_, controller_id_,
      config_);

  for (std::uint32_t i = 0; i < explorer_ids_.size(); ++i) {
    const NodeId id = explorer_ids_[i];
    explorers_.push_back(std::make_unique<ExplorerProcess>(
        id, i, *brokers_[id.machine], make_environment(setup_.env_name),
        make_agent(setup_, obs_dim, n_actions, i), learner_id_, controller_id_,
        config_));
  }

  if (!config_.stats_csv_path.empty()) {
    stats_csv_ = std::fopen(config_.stats_csv_path.c_str(), "w");
    if (stats_csv_ != nullptr) {
      std::fprintf(stats_csv_, "t_seconds,source,key,value\n");
    } else {
      XT_LOG_WARN << "cannot open stats csv " << config_.stats_csv_path;
    }
  }

  if (config_.supervision.enabled) {
    supervisor_ = std::make_unique<Supervisor>(config_.supervision, *metrics_);
    for (std::size_t i = 0; i < explorer_ids_.size(); ++i) {
      supervisor_->watch(explorer_ids_[i], [this, i](std::uint32_t attempt) {
        return respawn_explorer(i, attempt);
      });
    }
    supervisor_->watch(learner_id_, [this](std::uint32_t attempt) {
      return respawn_learner(attempt);
    });
    supervisor_->set_congestion_probe([this] { return fabric_congested(); });
  }

  // Everything the saturation probe reads (brokers, fabric, pool) now
  // exists, so the sampler can start before the first worker iteration.
  if (config_.profile.enabled) start_profiling();

  controller_thread_ = std::thread([this] {
    set_current_thread_name("controller");
    controller_loop();
  });
}

XingTianRuntime::~XingTianRuntime() {
  // The probe walks brokers_ and fabric_; removing it here is the barrier
  // that makes the teardown below safe (no-op when run() already did it).
  stop_profiling();
  // Join the controller first: once it is gone no respawn can race the
  // worker teardown below.
  stop_.store(true);
  if (controller_thread_.joinable()) controller_thread_.join();
  for (auto& explorer : explorers_) explorer->shutdown();
  if (learner_) learner_->shutdown();
  if (stats_csv_ != nullptr) {
    std::fclose(stats_csv_);
    stats_csv_ = nullptr;
  }
  if (controller_endpoint_) controller_endpoint_->stop();
  if (fabric_) fabric_->stop();
  for (auto& broker : brokers_) broker->stop();
}

void XingTianRuntime::start_profiling() {
  Profiler& profiler = Profiler::global();
  // The profiler is process-global (worker threads attach to it from inside
  // library code); clear tallies left over from a previous runtime so this
  // run's profile starts at zero.
  profiler.reset();
  profiler.start(config_.profile.hz);
  profiler_started_ = true;

  pipe_bytes_prev_.assign(fabric_->pipes().size(), 0);
  saturation_prev_ns_ = now_ns();

  // The saturation probe runs on the sampler thread at its own (slower)
  // cadence: queue depths and pool backlog into `xt_queue_depth{queue=...}` /
  // `xt_pool_pending_chunks`, link occupancy into
  // `xt_link_utilization{link=...}` from byte-counter deltas.
  Gauge& pool_pending = metrics_->gauge("xt_pool_pending_chunks");
  saturation_probe_token_ = profiler.add_probe(
      [this, &pool_pending] {
        std::vector<std::pair<std::string, double>> depths;
        for (const auto& broker : brokers_) {
          for (const auto& [queue, depth] : broker->queue_depths()) {
            const auto d = static_cast<double>(depth);
            metrics_->gauge("xt_queue_depth{queue=\"" + queue + "\"}").set(d);
            depths.emplace_back(queue, d);
          }
          metrics_
              ->gauge("xt_store_live_objects{machine=\"" +
                      std::to_string(broker->machine()) + "\"}")
              .set(static_cast<double>(broker->store().live_objects()));
        }
        if (auto pool = compute_pool()) {
          const auto backlog = static_cast<double>(pool->pending());
          pool_pending.set(backlog);
          depths.emplace_back("compute-pool", backlog);
        }
        const std::int64_t now = now_ns();
        const double dt_s =
            static_cast<double>(now - saturation_prev_ns_) / 1e9;
        const auto pipes = fabric_->pipes();
        for (std::size_t i = 0; i < pipes.size(); ++i) {
          const PacedPipe* pipe = pipes[i];
          const auto backlog = static_cast<double>(pipe->queued_frames());
          metrics_
              ->gauge("xt_queue_depth{queue=\"pipe-" + pipe->name() + "\"}")
              .set(backlog);
          depths.emplace_back("pipe-" + pipe->name(), backlog);
          const std::uint64_t bytes = pipe->bytes_transferred();
          if (i < pipe_bytes_prev_.size() && dt_s > 0.0) {
            const double rate =
                static_cast<double>(bytes - pipe_bytes_prev_[i]) / dt_s;
            const double util = std::clamp(
                rate / pipe->config().bandwidth_bytes_per_sec, 0.0, 1.0);
            metrics_
                ->gauge("xt_link_utilization{link=\"" + pipe->name() + "\"}")
                .set(util);
            pipe_bytes_prev_[i] = bytes;
          }
        }
        saturation_prev_ns_ = now;
        std::scoped_lock lock(saturation_mu_);
        queue_depth_snapshot_ = std::move(depths);
      },
      config_.profile.saturation_hz);
}

void XingTianRuntime::stop_profiling() {
  if (saturation_probe_token_ >= 0) {
    Profiler::global().remove_probe(saturation_probe_token_);
    saturation_probe_token_ = -1;
  }
  if (profiler_started_) {
    Profiler::global().stop();
    profiler_started_ = false;
  }
}

std::vector<std::pair<std::string, double>>
XingTianRuntime::queue_depth_snapshot() const {
  std::scoped_lock lock(saturation_mu_);
  return queue_depth_snapshot_;
}

void XingTianRuntime::controller_loop() {
  // Center controller: collect statistics from explorers and the learner
  // (paper Section 3.2.2). Episode returns feed the convergence goal.
  const Stopwatch clock;
  while (!stop_.load()) {
    auto msg = controller_endpoint_->receive_for(std::chrono::milliseconds(20));
    if (supervisor_) supervisor_->poll();
    if (!msg) continue;
    // Any message from a watched worker proves it is alive — stats count as
    // much as dedicated beacons. This matters under congestion: heartbeats
    // queue behind multi-megabyte rollout frames on the paced link, and a
    // timeout that only trusted kHeartbeat would respawn healthy workers.
    // Liveness is keyed to the message's creation time: a congested inbox
    // draining a dead worker's backlog must not keep it looking alive.
    if (supervisor_) {
      supervisor_->note_heartbeat(msg->header.src, msg->header.created_ns);
    }
    if (msg->header.type == MsgType::kHeartbeat) continue;
    if (msg->header.type != MsgType::kStats) continue;
    auto record = StatsRecord::deserialize(*msg->body);
    if (!record) continue;
    if (stats_csv_ != nullptr) {
      for (const auto& [key, value] : record->values) {
        std::fprintf(stats_csv_, "%.3f,%s,%s,%.6g\n", clock.elapsed_s(),
                     record->source.c_str(), key.c_str(), value);
      }
      std::fflush(stats_csv_);
    }
    auto it = record->values.find("episode_return");
    if (it != record->values.end()) {
      std::scoped_lock lock(returns_mu_);
      recent_returns_.push_back(it->second);
      ++episodes_reported_;
      const auto cap = static_cast<std::size_t>(
          std::max(100, config_.target_return_window));
      while (recent_returns_.size() > cap) recent_returns_.pop_front();
    }
  }
}

double XingTianRuntime::recent_return() const {
  std::scoped_lock lock(returns_mu_);
  if (recent_returns_.empty()) return 0.0;
  const auto window = static_cast<std::size_t>(config_.target_return_window);
  const std::size_t n = std::min(window, recent_returns_.size());
  double sum = 0.0;
  for (std::size_t i = recent_returns_.size() - n; i < recent_returns_.size(); ++i) {
    sum += recent_returns_[i];
  }
  return sum / static_cast<double>(n);
}

std::uint64_t XingTianRuntime::episodes_reported() const {
  std::scoped_lock lock(returns_mu_);
  return episodes_reported_;
}

std::uint64_t XingTianRuntime::learner_steps() const {
  std::scoped_lock lock(workers_mu_);
  return learner_ ? learner_->steps_consumed() : 0;
}

std::uint32_t XingTianRuntime::learner_checkpoints() const {
  std::scoped_lock lock(workers_mu_);
  return learner_ ? learner_->checkpoints_written() : 0;
}

void XingTianRuntime::inject_explorer_crash(std::size_t global_index) {
  std::scoped_lock lock(workers_mu_);
  if (global_index < explorers_.size() && explorers_[global_index]) {
    explorers_[global_index]->inject_crash();
  }
}

void XingTianRuntime::inject_learner_crash() {
  std::scoped_lock lock(workers_mu_);
  if (learner_) learner_->inject_crash();
}

bool XingTianRuntime::fabric_congested() const {
  // An open (or probing) breaker is the strongest overload signal: the link
  // gave up on enough frames in a row that bulk traffic is being refused.
  for (const ReliableChannel* channel : fabric_->channels()) {
    if (channel->state() != LinkState::kClosed) return true;
  }
  if (!config_.overload.bounded()) return false;
  const std::size_t high = config_.overload.high_watermark;
  for (const auto& broker : brokers_) {
    for (const auto& [queue, depth] : broker->queue_depths()) {
      if (depth >= high) return true;
    }
  }
  for (const PacedPipe* pipe : fabric_->pipes()) {
    if (pipe->queued_frames() >= high) return true;
  }
  return false;
}

bool XingTianRuntime::respawn_explorer(std::size_t global_index,
                                       std::uint32_t attempt) {
  std::scoped_lock lock(workers_mu_);
  if (stop_.load() || global_index >= explorers_.size()) return false;
  const NodeId id = explorer_ids_[global_index];
  XT_LOG_INFO << "respawning " << id.name() << " (attempt " << attempt << ")";
  // Tear down the dead worker (joins its exited thread, unregisters its
  // endpoint) and rebuild it under the same NodeId with a fresh env+agent;
  // the first weight broadcast it receives brings it back on-policy.
  explorers_[global_index].reset();
  explorers_[global_index] = std::make_unique<ExplorerProcess>(
      id, static_cast<std::uint32_t>(global_index), *brokers_[id.machine],
      make_environment(setup_.env_name),
      make_agent(setup_, obs_dim_, n_actions_,
                 static_cast<std::uint32_t>(global_index)),
      learner_id_, controller_id_, config_);
  return true;
}

bool XingTianRuntime::respawn_learner(std::uint32_t attempt) {
  std::scoped_lock lock(workers_mu_);
  if (stop_.load() || !learner_) return false;
  // Progress already credited to the training goal survives the crash even
  // if the checkpoint lags behind it.
  std::uint64_t steps = learner_->steps_consumed();
  AlgoSetup setup = setup_;
  if (!config_.checkpoint_path.empty()) {
    if (auto snapshot = Checkpointer::load(config_.checkpoint_path)) {
      setup.initial_weights = std::move(snapshot->weights);
      steps = std::max(steps, snapshot->steps_consumed);
      XT_LOG_INFO << "respawning learner from checkpoint v"
                  << snapshot->weights_version << " ("
                  << snapshot->steps_consumed << " steps, attempt " << attempt
                  << ")";
    } else {
      XT_LOG_WARN << "respawning learner without checkpoint (none readable at "
                  << config_.checkpoint_path << ", attempt " << attempt << ")";
    }
  } else {
    XT_LOG_WARN << "respawning learner from scratch (no checkpoint path, "
                << "attempt " << attempt << ")";
  }
  learner_.reset();
  learner_ = std::make_unique<LearnerProcess>(
      learner_id_, *brokers_[config_.learner_machine],
      make_algorithm(setup, obs_dim_, n_actions_), explorer_ids_,
      controller_id_, config_, steps);
  return true;
}

void XingTianRuntime::broadcast_shutdown() {
  // The center controller broadcasts shutdown commands through the channel
  // (paper Section 3.2.2); request_stop below is the belt-and-braces local
  // fallback for workhorses blocked outside their inboxes.
  std::vector<NodeId> everyone = explorer_ids_;
  everyone.push_back(learner_id_);
  (void)controller_endpoint_->send(make_outbound(
      controller_id_, std::move(everyone), MsgType::kCommand, empty_payload()));
}

RunReport XingTianRuntime::run() {
  assert(!ran_ && "run() is single-shot");
  ran_ = true;

  const Stopwatch clock;
  double next_stats_line_s = config_.obs.stats_line_every_s;
  while (true) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (config_.obs.stats_line_every_s > 0.0 &&
        clock.elapsed_s() >= next_stats_line_s) {
      next_stats_line_s += config_.obs.stats_line_every_s;
      const double elapsed = clock.elapsed_s();
      const auto steps = learner_steps();
      std::string profile_suffix;
      if (profiler_started_) {
        profile_suffix = profile_stats_suffix(Profiler::global().profiles(),
                                              queue_depth_snapshot());
      }
      XT_LOG_INFO << "stats t=" << elapsed << "s steps=" << steps
                  << " throughput=" << (elapsed > 0 ? static_cast<double>(steps) / elapsed : 0.0)
                  << "/s episodes=" << episodes_reported()
                  << " wait_ms=" << family_mean(*metrics_, "xt_learner_wait_ms")
                  << " train_ms=" << family_mean(*metrics_, "xt_learner_train_ms")
                  << " spans=" << trace_->total_recorded() << profile_suffix;
    }
    if (config_.max_steps_consumed > 0 &&
        learner_steps() >= config_.max_steps_consumed) {
      break;
    }
    if (config_.max_seconds > 0.0 && clock.elapsed_s() >= config_.max_seconds) {
      break;
    }
    if (config_.target_return > 0.0 && episodes_reported() >=
            static_cast<std::uint64_t>(config_.target_return_window) &&
        recent_return() >= config_.target_return) {
      break;
    }
  }
  const double wall = clock.elapsed_s();

  // Snapshot the profiler while the run's threads are still live, then stop
  // it so shutdown idling does not dilute the tallies.
  std::vector<ThreadProfile> thread_profiles;
  std::vector<std::pair<std::string, double>> final_depths;
  if (profiler_started_) {
    thread_profiles = Profiler::global().profiles();
    final_depths = queue_depth_snapshot();
  }
  stop_profiling();

  // Stop supervision before tearing workers down: once the controller
  // thread is joined, no respawn can resurrect a worker mid-shutdown.
  stop_.store(true);
  if (controller_thread_.joinable()) controller_thread_.join();

  broadcast_shutdown();
  for (auto& explorer : explorers_) explorer->request_stop();
  learner_->request_stop();
  for (auto& explorer : explorers_) explorer->shutdown();
  learner_->shutdown();

  RunReport report;
  report.steps_consumed = learner_->steps_consumed();
  report.training_sessions = learner_->training_sessions();
  report.wall_seconds = wall;
  report.avg_episode_return = recent_return();
  report.episodes = episodes_reported();
  report.avg_throughput = wall > 0 ? static_cast<double>(report.steps_consumed) / wall : 0;
  report.throughput_series = learner_->throughput().series();
  // The latency decomposition comes from the telemetry histograms; the
  // learner's LatencyRecorders back the CDF (reservoir of raw samples).
  report.mean_transmission_ms = learner_->transmission_ms().mean();
  report.mean_wait_ms = family_mean(*metrics_, "xt_learner_wait_ms");
  report.mean_train_ms = family_mean(*metrics_, "xt_learner_train_ms");
  report.mean_rollout_ms = family_mean(*metrics_, "xt_explorer_rollout_ms");
  report.mean_gemm_ms = family_mean(*metrics_, "xt_gemm_ms");
  report.gemm_flops = family_total(*metrics_, "xt_gemm_flops_total");
  if (const LatencyRecorder* sample = learner_->algorithm().replay_sample_latency()) {
    report.mean_replay_sample_ms = sample->mean();
  }
  report.wait_cdf = learner_->wait_times_ms().cdf(101);
  report.rollout_messages = learner_->rollout_messages();
  report.rollout_bytes = learner_->rollout_bytes();
  report.weight_broadcasts = learner_->weight_broadcasts();
  report.weights_applied = family_total(*metrics_, "xt_weights_applied_total");
  // Weight-codec layer (DESIGN.md §11): encoded vs fp32-equivalent publish
  // volume plus the lazy/keyframe/fallback protocol tallies.
  report.weights_wire_bytes = family_total(*metrics_, "xt_weights_bytes_total");
  report.weights_raw_bytes = family_total(*metrics_, "xt_weights_raw_bytes_total");
  report.weights_skipped = family_total(*metrics_, "xt_weights_skipped_total");
  report.weights_keyframes = family_total(*metrics_, "xt_weights_keyframes_total");
  report.weights_keyframe_requests =
      family_total(*metrics_, "xt_weights_keyframe_requests_total");
  report.weights_decode_failures =
      family_total(*metrics_, "xt_weights_decode_failures_total");
  report.weights_broadcast_p99_ms =
      family_quantile(*metrics_, "xt_weights_broadcast_ms", 0.99);

  // Robustness: chaos-fabric and supervision tallies (all zero when faults
  // are off and every worker stayed alive).
  report.faults_injected = family_total(*metrics_, "xt_faults_injected_total");
  report.frames_corrupted =
      family_total(*metrics_, "xt_frames_corrupted_total");
  report.retransmits = family_total(*metrics_, "xt_retransmits_total");
  // Overload-model tallies: sheds across every bounded stage (router,
  // inbox, endpoint buffers), pipe-level frame sheds, and breaker trips.
  report.messages_shed = family_total(*metrics_, "xt_messages_shed_total");
  report.frames_shed = family_total(*metrics_, "xt_frames_shed_total");
  report.breaker_opens =
      family_total(*metrics_, "xt_link_breaker_opens_total");
  if (supervisor_) {
    report.heartbeats_missed = supervisor_->heartbeats_missed();
    report.worker_restarts = supervisor_->restarts();
    report.explorer_restarts = supervisor_->explorer_restarts();
    report.learner_restarts = supervisor_->learner_restarts();
    report.degraded_workers = supervisor_->degraded();
    report.workers_suspected = supervisor_->suspects();
    report.respawns_suppressed = supervisor_->respawns_suppressed();
    if (report.worker_restarts > 0) {
      XT_LOG_INFO << "run survived " << report.worker_restarts
                  << " worker restart(s) (" << report.explorer_restarts
                  << " explorer, " << report.learner_restarts << " learner, "
                  << report.degraded_workers << " degraded)";
    }
  }

  // Bottleneck attribution: reconstruct per-message lifecycles from the
  // trace ring and attribute end-to-end latency to pipeline stages (the
  // paper's Fig. 7 decomposition, computed instead of hand-measured).
  if (config_.obs.tracing) {
    report.critical_path = analyze_critical_path(trace_->snapshot());
    report.dominant_stage = report.critical_path.dominant_stage;
    if (report.critical_path.messages > 0) {
      XT_LOG_INFO << "critical path: " << report.critical_path.messages
                  << " message(s), mean e2e "
                  << report.critical_path.mean_end_to_end_ms
                  << " ms, dominant stage '" << report.dominant_stage << "' ("
                  << static_cast<int>(report.critical_path.dominant_share * 100.0 + 0.5)
                  << "%)";
    }
  }
  report.thread_profiles = std::move(thread_profiles);
  if (!config_.profile.profile_json_path.empty()) {
    if (write_profile_json_file(config_.profile.profile_json_path,
                                report.critical_path, report.thread_profiles,
                                final_depths, wall, config_.profile.hz)) {
      XT_LOG_INFO << "wrote profile to " << config_.profile.profile_json_path;
    } else {
      XT_LOG_WARN << "cannot write profile to "
                  << config_.profile.profile_json_path;
    }
  }

  if (!config_.obs.chrome_trace_path.empty()) {
    if (write_chrome_trace_file(*trace_, config_.obs.chrome_trace_path)) {
      XT_LOG_INFO << "wrote chrome trace (" << trace_->size() << " spans) to "
                  << config_.obs.chrome_trace_path;
    } else {
      XT_LOG_WARN << "cannot write chrome trace to "
                  << config_.obs.chrome_trace_path;
    }
  }
  // Snapshot metrics last: frames still in flight at shutdown are dropped by
  // the brokers while the report is assembled, and the dump should see them.
  report.prometheus = prometheus_text(*metrics_);
  if (!config_.obs.prometheus_path.empty()) {
    std::ofstream out(config_.obs.prometheus_path);
    if (out) {
      out << report.prometheus;
      XT_LOG_INFO << "wrote prometheus metrics to "
                  << config_.obs.prometheus_path;
    } else {
      XT_LOG_WARN << "cannot write prometheus metrics to "
                  << config_.obs.prometheus_path;
    }
  }
  return report;
}

}  // namespace xt
