#include "netsim/reliable_link.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/log.h"
#include "common/thread_util.h"
#include "netsim/fault_plan.h"
#include "obs/catalog.h"
#include "obs/profiler.h"

namespace xt {
namespace {

std::int64_t ms_to_ns(double ms) {
  return static_cast<std::int64_t>(std::llround(ms * 1e6));
}

/// Deadline of a frame still waiting for the pipe: its timer starts when the
/// pipe starts serializing it.
constexpr std::int64_t kUnarmed = std::numeric_limits<std::int64_t>::max();

}  // namespace

const char* link_state_name(LinkState state) {
  switch (state) {
    case LinkState::kClosed: return "closed";
    case LinkState::kOpen: return "open";
    case LinkState::kHalfOpen: return "half_open";
  }
  return "closed";
}

ReliableChannel::ReliableChannel(std::string name, ReliabilityConfig config,
                                 PacedPipe& data_pipe, Broker& receiver,
                                 MetricsRegistry& metrics)
    : name_(std::move(name)),
      config_(config),
      pipe_(data_pipe),
      breaker_failures_(data_pipe.config().overload.bounded()
                            ? data_pipe.config().overload.breaker_failures
                            : 0),
      receiver_(receiver),
      inst_{metrics.counter(metric::xt_retransmits_total, {name_}),
            metrics.counter(metric::xt_retransmit_give_ups_total, {name_}),
            metrics.counter(metric::xt_link_duplicate_frames_total, {name_}),
            metrics.counter(metric::xt_link_acks_total, {name_}),
            metrics.gauge(metric::xt_link_state, {name_}),
            metrics.counter(metric::xt_link_breaker_opens_total, {name_}),
            metrics.counter(metric::xt_link_breaker_shed_total, {name_})} {
  retransmitter_ = std::thread([this] {
    set_current_thread_name("rexmit-" + name_);
    retransmit_loop();
  });
}

ReliableChannel::~ReliableChannel() { stop(); }

void ReliableChannel::stop() {
  {
    std::scoped_lock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (retransmitter_.joinable()) retransmitter_.join();
}

void ReliableChannel::set_ack_sender(AckSender sender) {
  ack_sender_ = std::move(sender);
}

std::size_t ReliableChannel::pending() const {
  std::scoped_lock lock(mu_);
  return pending_.size();
}

LinkState ReliableChannel::state() const {
  std::scoped_lock lock(mu_);
  return state_;
}

void ReliableChannel::set_state_locked(LinkState state) {
  state_ = state;
  inst_.link_state.set(static_cast<double>(state));
}

bool ReliableChannel::breaker_admit_locked(const WireFrame& frame,
                                           std::int64_t now) {
  if (breaker_failures_ == 0 || state_ == LinkState::kClosed) {
    return true;
  }
  // Control always flows: heartbeats and acks are the cheapest possible
  // probes, and shedding them would blind the supervisor exactly when it
  // needs link-state evidence.
  if (frame.tclass == TrafficClass::kControl) return true;
  if (state_ == LinkState::kOpen && now >= probe_deadline_ns_) {
    set_state_locked(LinkState::kHalfOpen);
    probe_in_flight_ = false;
  }
  if (state_ == LinkState::kHalfOpen && !probe_in_flight_) {
    probe_in_flight_ = true;  // admit exactly one frame to test the link
    return true;
  }
  inst_.breaker_shed.inc();
  return false;
}

void ReliableChannel::note_give_up_locked(std::int64_t now) {
  if (breaker_failures_ == 0) return;
  ++consecutive_give_ups_;
  const bool probe_failed = state_ == LinkState::kHalfOpen;
  if (!probe_failed && (state_ == LinkState::kOpen ||
                        consecutive_give_ups_ < breaker_failures_)) {
    return;
  }
  // Trip (or re-trip after a failed probe): shed pending non-control frames
  // so the retransmit queue stops growing against a dead link; control
  // frames stay pending — they are the probes that will close the breaker.
  set_state_locked(LinkState::kOpen);
  probe_deadline_ns_ = now + ms_to_ns(pipe_.config().overload.breaker_probe_ms);
  probe_in_flight_ = false;
  inst_.breaker_opens.inc();
  std::size_t shed = 0;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.frame.tclass == TrafficClass::kControl) {
      ++it;
      continue;
    }
    ++shed;
    it = pending_.erase(it);
  }
  inst_.breaker_shed.inc(shed);
  XT_LOG_WARN << "link " << name_ << ": circuit breaker open after "
              << consecutive_give_ups_ << " consecutive give-up(s), shed "
              << shed << " pending frame(s)";
}

void ReliableChannel::send(const MessageHeader& header, Payload body) {
  WireFrame frame = encode_wire_frame(header, std::move(body), /*with_crc=*/true);
  std::uint64_t seq = 0;
  {
    std::scoped_lock lock(mu_);
    if (stopping_) return;
    if (!breaker_admit_locked(frame, now_ns())) return;
    seq = next_seq_++;
    frame.link_seq = seq;
    Pending entry;
    entry.frame = frame;
    entry.rto_ns = ms_to_ns(config_.rto_ms);
    entry.deadline_ns = kUnarmed;
    pending_.emplace(seq, std::move(entry));
  }
  transmit(seq, frame);
}

void ReliableChannel::transmit(std::uint64_t seq, const WireFrame& frame) {
  pipe_.send_faultable(
      frame.wire_size(),
      [this, seq, frame](const FaultOutcome& outcome) {
        deliver(seq, frame, outcome);
      },
      frame.trace_id, frame.tclass, [this, seq] { arm(seq); });
}

void ReliableChannel::arm(std::uint64_t seq) {
  {
    std::scoped_lock lock(mu_);
    auto it = pending_.find(seq);
    if (it == pending_.end()) return;
    it->second.deadline_ns = now_ns() + it->second.rto_ns;
  }
  cv_.notify_one();  // the retransmitter may need an earlier deadline
}

void ReliableChannel::deliver(std::uint64_t seq, const WireFrame& frame,
                              const FaultOutcome& outcome) {
  // Dedup first: a retransmit racing its own late ack must not reach the
  // broker twice. Re-ack duplicates immediately — a duplicate means the
  // sender never saw the original ack and is burning retransmit slots until
  // it does.
  bool duplicate = false;
  {
    std::scoped_lock lock(recv_mu_);
    duplicate = seq <= recv_floor_ || recv_seen_.count(seq) != 0;
  }
  if (duplicate) {
    inst_.duplicates.inc();
    send_ack(seq);
    return;
  }
  // A frame that fails its CRC goes unacked, so a retransmit repairs it.
  // Routing drops (no local dest, closed queue) cannot be repaired that
  // way, so they never withhold the ack.
  if (!receiver_.deliver_frame(apply_corruption(frame, outcome),
                               /*retransmits=*/true)) {
    return;
  }
  {
    std::scoped_lock lock(recv_mu_);
    recv_seen_.insert(seq);
    while (recv_seen_.erase(recv_floor_ + 1) != 0) ++recv_floor_;
  }
  send_ack(seq);
}

void ReliableChannel::send_ack(std::uint64_t seq) {
  if (!ack_sender_) return;
  inst_.acks.inc();
  ack_sender_(seq);
}

void ReliableChannel::on_ack(std::uint64_t seq) {
  bool erased = false;
  bool reopened = false;
  {
    std::scoped_lock lock(mu_);
    erased = pending_.erase(seq) != 0;
    if (breaker_failures_ != 0) {
      // Any ack proves the link carries traffic end to end again: reset the
      // failure streak and close the breaker.
      consecutive_give_ups_ = 0;
      if (state_ != LinkState::kClosed) {
        set_state_locked(LinkState::kClosed);
        probe_in_flight_ = false;
        reopened = true;
      }
    }
  }
  if (reopened) {
    XT_LOG_INFO << "link " << name_ << ": circuit breaker closed (ack)";
  }
  if (erased) cv_.notify_one();
}

void ReliableChannel::retransmit_loop() {
  std::unique_lock lock(mu_);
  while (!stopping_) {
    std::int64_t earliest = kUnarmed;
    for (const auto& [seq, entry] : pending_) {
      earliest = std::min(earliest, entry.deadline_ns);
    }
    if (earliest == kUnarmed) {  // nothing pending, or nothing on the wire yet
      cv_.wait(lock);
      continue;
    }
    const std::int64_t now = now_ns();
    if (earliest > now) {
      cv_.wait_for(lock, std::chrono::nanoseconds(earliest - now));
      continue;
    }
    // Collect everything past deadline, then retransmit outside the lock so
    // on_ack / send never contend with the (paced, potentially slow) pipe.
    std::vector<WireFrame> due;
    std::uint64_t abandoned = 0;
    for (auto it = pending_.begin(); it != pending_.end();) {
      Pending& entry = it->second;
      if (entry.deadline_ns > now) {
        ++it;
        continue;
      }
      if (entry.retries >= config_.max_retries) {
        inst_.give_ups.inc();
        ++abandoned;
        it = pending_.erase(it);
        // May trip the breaker, which erases pending non-control entries —
        // restart the scan rather than hold a possibly-invalidated iterator.
        const std::size_t before = pending_.size();
        note_give_up_locked(now);
        if (pending_.size() != before) it = pending_.begin();
        continue;
      }
      ++entry.retries;
      entry.rto_ns = std::min(
          static_cast<std::int64_t>(
              static_cast<double>(entry.rto_ns) * config_.backoff),
          ms_to_ns(config_.max_rto_ms));
      entry.deadline_ns = kUnarmed;  // re-armed as the retransmit starts
      due.push_back(entry.frame);
      ++it;
    }
    lock.unlock();
    if (abandoned > 0) {
      XT_LOG_WARN << "link " << name_ << ": abandoned " << abandoned
                  << " frame(s) after " << config_.max_retries << " retries";
    }
    if (!due.empty()) {
      ProfScope prof("retransmit");
      for (WireFrame& frame : due) {
        inst_.retransmits.inc();
        transmit(frame.link_seq, frame);
      }
    }
    lock.lock();
  }
}

}  // namespace xt
