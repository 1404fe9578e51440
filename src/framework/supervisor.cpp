#include "framework/supervisor.h"

#include <cmath>

#include "common/clock.h"
#include "common/log.h"
#include "comm/message.h"
#include "obs/catalog.h"

namespace xt {
namespace {

std::int64_t s_to_ns(double s) {
  return static_cast<std::int64_t>(std::llround(s * 1e9));
}

}  // namespace

Heartbeater::Heartbeater(Endpoint& endpoint, NodeId self, NodeId controller,
                         double every_s)
    : endpoint_(endpoint),
      self_(self),
      controller_(controller),
      every_ns_(s_to_ns(every_s)) {}

void Heartbeater::tick() {
  const std::int64_t now = now_ns();
  if (now - last_sent_ns_ < every_ns_) return;
  last_sent_ns_ = now;
  (void)endpoint_.send(
      make_outbound(self_, {controller_}, MsgType::kHeartbeat, empty_payload()));
}

Supervisor::Supervisor(SupervisionConfig config, MetricsRegistry& metrics)
    : config_(config),
      restarts_(metrics.counter(metric::xt_worker_restarts_total)),
      suspects_(metrics.counter(metric::xt_workers_suspected_total)),
      suppressed_(metrics.counter(metric::xt_respawns_suppressed_total)) {}

void Supervisor::set_congestion_probe(CongestionProbe probe) {
  congestion_probe_ = std::move(probe);
}

void Supervisor::watch(NodeId id, RespawnFn respawn) {
  Watched w;
  w.respawn = std::move(respawn);
  w.last_beat_ns = now_ns();
  watched_[id] = std::move(w);
}

void Supervisor::note_heartbeat(const NodeId& id, std::int64_t produced_ns) {
  auto it = watched_.find(id);
  if (it == watched_.end()) return;
  const std::int64_t beat = produced_ns > 0 ? produced_ns : now_ns();
  Watched& w = it->second;
  // A message older than the current liveness mark is stale backlog (e.g.
  // a congested inbox draining messages a dead worker produced before it
  // crashed) — it is not evidence the worker is alive *now*, so it neither
  // advances the clock nor ends a silence episode.
  if (beat <= w.last_beat_ns) return;
  w.last_beat_ns = beat;
  w.suspect_since_ns = 0;  // alive: the silence episode is over
  w.suppression_counted = false;
}

void Supervisor::poll() {
  const std::int64_t timeout_ns = s_to_ns(config_.heartbeat_timeout_s);
  const std::int64_t grace_ns = s_to_ns(config_.suspect_grace_s);
  const std::int64_t min_interval_ns = s_to_ns(config_.respawn_min_interval_s);
  const std::int64_t now = now_ns();
  // One probe call per scan, and only when some worker is actually silent —
  // the probe walks broker queues and link states, so keep it off the
  // healthy path.
  bool congestion_checked = false;
  bool congested = false;
  for (auto& [id, w] : watched_) {
    if (w.degraded) continue;
    if (now - w.last_beat_ns < timeout_ns) {
      w.suspect_since_ns = 0;
      w.suppression_counted = false;
      continue;
    }
    if (w.suspect_since_ns == 0) {
      // Entering the suspect state: count the missed heartbeat once per
      // silence episode and start the grace clock.
      w.suspect_since_ns = now;
      suspects_.inc();
      XT_LOG_WARN << "supervisor: " << id.name() << " silent for "
                  << static_cast<double>(now - w.last_beat_ns) / 1e9
                  << "s, suspect";
    }
    if (!congestion_checked) {
      congestion_checked = true;
      congested = congestion_probe_ && congestion_probe_();
    }
    if (congested) {
      // Overload evidence: silence is expected, not proof of death. Restart
      // the grace clock so the worker gets a full grace once the fabric
      // recovers — this is what makes sustained overload produce zero
      // false-positive respawns.
      w.suspect_since_ns = now;
      continue;
    }
    if (now - w.suspect_since_ns < grace_ns) continue;
    if (min_interval_ns > 0 && w.last_respawn_ns != 0 &&
        now - w.last_respawn_ns < min_interval_ns) {
      if (!w.suppression_counted) {
        w.suppression_counted = true;
        suppressed_.inc();
      }
      continue;
    }
    if (w.restarts >= config_.max_restarts_per_worker) {
      w.degraded = true;
      ++degraded_;
      XT_LOG_WARN << "supervisor: " << id.name() << " exhausted its "
                  << config_.max_restarts_per_worker
                  << "-restart budget; continuing degraded without it";
      continue;
    }
    XT_LOG_WARN << "supervisor: " << id.name() << " silent for "
                << static_cast<double>(now - w.last_beat_ns) / 1e9
                << "s, respawning (attempt " << (w.restarts + 1) << ")";
    if (!w.respawn(w.restarts + 1)) {
      // Respawn refused (shutdown in progress): leave state untouched so a
      // later poll can retry if the runtime is in fact still alive.
      continue;
    }
    ++w.restarts;
    restarts_.inc();
    if (id.kind == NodeKind::kLearner) {
      ++learner_restarts_;
    } else {
      ++explorer_restarts_;
    }
    // The replacement needs a full timeout to come up and start beating.
    w.last_beat_ns = now_ns();
    w.last_respawn_ns = w.last_beat_ns;
    w.suspect_since_ns = 0;
    w.suppression_counted = false;
  }
}

}  // namespace xt
