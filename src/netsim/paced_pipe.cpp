#include "netsim/paced_pipe.h"

#include <cmath>

#include "common/clock.h"
#include "common/thread_util.h"
#include "obs/profiler.h"

namespace xt {

PacedPipe::PacedPipe(std::string name, LinkConfig config)
    : PacedPipe(std::move(name), config, Observability{}) {}

PacedPipe::PacedPipe(std::string name, LinkConfig config, Observability obs)
    : name_(std::move(name)),
      config_(config),
      obs_(obs),
      queue_(config.overload, [this](TrafficClass /*cls*/, Frame&& frame) {
        frames_shed_.fetch_add(1, std::memory_order_relaxed);
        if (obs_.frames_shed != nullptr) obs_.frames_shed->inc();
        if (frame.on_start) frame.on_start();
      }) {
  if (config_.faults.enabled()) {
    injector_ = std::make_unique<FaultInjector>(config_.faults);
  }
  transmitter_ = std::thread([this] {
    set_current_thread_name("pipe-" + name_);
    transmit_loop();
  });
  deliverer_ = std::thread([this] {
    set_current_thread_name("prop-" + name_);
    delivery_loop();
  });
}

PacedPipe::~PacedPipe() { stop(); }

void PacedPipe::stop() {
  queue_.close();
  if (transmitter_.joinable()) transmitter_.join();
  // The transmitter has handed its last frame to the delay line; the
  // delivery thread lands everything still in flight, then exits.
  in_flight_.close();
  if (deliverer_.joinable()) deliverer_.join();
}

bool PacedPipe::send(std::size_t wire_bytes, std::function<void()> deliver,
                     std::uint64_t trace_id) {
  return send_faultable(
      wire_bytes,
      [deliver = std::move(deliver)](const FaultOutcome&) { deliver(); },
      trace_id);
}

bool PacedPipe::send_faultable(std::size_t wire_bytes, FaultableDeliver deliver,
                               std::uint64_t trace_id, TrafficClass cls,
                               StartHook on_start) {
  // kShed still returns true: the frame was accepted by the link and then
  // dropped by its overload policy — from the sender's perspective exactly
  // like a frame lost downstream (a reliable channel recovers it the same
  // way, through the missing ack).
  return queue_.push(cls, Frame{wire_bytes, std::move(deliver), trace_id,
                                std::move(on_start)}) != PushResult::kClosed;
}

void PacedPipe::transmit_loop() {
  const Stopwatch link_clock;  // blackout windows key off link uptime
  while (auto frame = queue_.pop()) {
    // The transmit scope covers serialization only — the link's real
    // occupancy — so this thread's busy% reads as link utilization.
    ProfScope prof("transmit");
    const std::int64_t start_ns = now_ns();
    if (frame->on_start) frame->on_start();
    FaultOutcome outcome;
    if (injector_) outcome = injector_->next_frame(link_clock.elapsed_s());

    // Pacing: even a frame destined to vanish occupies the sender's NIC for
    // its serialization time, exactly like a packet lost downstream.
    const double total_bytes =
        static_cast<double>(frame->wire_bytes + config_.frame_overhead_bytes);
    precise_sleep_ns(static_cast<std::int64_t>(
        std::llround(total_bytes / config_.bandwidth_bytes_per_sec * 1e9)));

    bytes_transferred_.fetch_add(frame->wire_bytes, std::memory_order_relaxed);
    frames_transferred_.fetch_add(1, std::memory_order_relaxed);
    if (obs_.wire_bytes != nullptr) obs_.wire_bytes->inc(frame->wire_bytes);
    if (obs_.frames != nullptr) obs_.frames->inc();
    if (outcome.extra_latency_ns > 0 && obs_.faults_delayed != nullptr) {
      obs_.faults_delayed->inc();
    }
    if (outcome.drop) {
      frames_dropped_.fetch_add(1, std::memory_order_relaxed);
      if (outcome.blackout) {
        if (obs_.faults_blackout != nullptr) obs_.faults_blackout->inc();
      } else if (obs_.faults_dropped != nullptr) {
        obs_.faults_dropped->inc();
      }
      continue;
    }
    if (outcome.corrupt && obs_.faults_corrupted != nullptr) {
      obs_.faults_corrupted->inc();
    }
    const std::int64_t due_ns =
        now_ns() + config_.latency_ns + outcome.extra_latency_ns;
    in_flight_.push(InFlight{std::move(*frame), outcome, start_ns, due_ns});
  }
}

void PacedPipe::delivery_loop() {
  while (auto item = in_flight_.pop()) {
    precise_sleep_ns(item->due_ns - now_ns());
    const std::int64_t end_ns = now_ns();
    if (obs_.transmit_ms != nullptr) {
      obs_.transmit_ms->observe(ns_to_ms(end_ns - item->start_ns));
    }
    // The span covers serialization plus propagation and ends as the far
    // end takes the frame, like the endpoint's queue.wait span.
    if (obs_.trace != nullptr && obs_.trace->enabled()) {
      TraceSpan span;
      span.name = "pipe.transmit";
      span.category = "comm";
      span.trace_id = item->frame.trace_id;
      span.start_ns = item->start_ns;
      span.dur_ns = end_ns - item->start_ns;
      span.pid = obs_.pid;
      span.tid = trace_thread_id();
      span.bytes = item->frame.wire_bytes;
      obs_.trace->record(span);
    }
    ProfScope prof("deliver");
    item->frame.deliver(item->outcome);
  }
}

}  // namespace xt
