#include "netsim/paced_pipe.h"

#include <algorithm>

#include "common/clock.h"
#include "common/thread_util.h"
#include "obs/catalog.h"
#include "obs/profiler.h"

namespace xt {

PacedPipe::Faults::Faults(const FaultPlan& plan, MetricsRegistry& metrics,
                          const std::string& link)
    : injector(plan),
      dropped(metrics.counter(metric::xt_faults_injected_total, {link, "drop"})),
      corrupted(metrics.counter(metric::xt_faults_injected_total, {link, "corrupt"})),
      delayed(metrics.counter(metric::xt_faults_injected_total, {link, "delay"})),
      blackout(metrics.counter(metric::xt_faults_injected_total, {link, "blackout"})) {}

void PacedPipe::Faults::count(const FaultOutcome& outcome) {
  if (outcome.extra_latency_ns > 0) delayed.inc();
  if (outcome.drop) {
    (outcome.blackout ? blackout : dropped).inc();
  } else if (outcome.corrupt) {
    corrupted.inc();
  }
}

PacedPipe::PacedPipe(std::string name, LinkConfig config,
                     MetricsRegistry& metrics, TraceCollector* trace,
                     std::uint32_t pid)
    : name_(std::move(name)),
      config_(config),
      trace_(trace),
      pid_(pid),
      transmit_ms_(stage_histogram(metrics, StageId::kPipeTransmit, {name_})),
      wire_bytes_(metrics.counter(metric::xt_pipe_wire_bytes_total, {name_})),
      frames_(metrics.counter(metric::xt_pipe_frames_total, {name_})),
      shutdown_drops_(metrics.counter(metric::xt_pipe_shutdown_drops_total, {name_})),
      frames_shed_(config.overload.bounded()
                       ? &metrics.counter(metric::xt_frames_shed_total, {name_})
                       : nullptr),
      faults_(config.faults.enabled()
                  ? std::make_unique<Faults>(config.faults, metrics, name_)
                  : nullptr),
      queue_(config.overload, [this](TrafficClass /*cls*/, Frame&& frame) {
        frames_shed_->inc();
        if (frame.on_start) frame.on_start();
      }) {
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
  // Frames still waiting for the wire are dropped, unpaced and undelivered;
  // the frame on the wire finishes its serialization.
  shutdown_drops_.inc(queue_.close_and_take().size());
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
                                std::move(on_start), now_ns()}) != PushResult::kClosed;
}

void PacedPipe::transmit_loop() {
  const Stopwatch link_clock;  // blackout windows key off link uptime
  Pacer wire;
  while (auto frame = queue_.pop()) {
    // The transmit scope covers serialization only — the link's real
    // occupancy — so this thread's busy% reads as link utilization.
    ProfScope prof("transmit");
    // The frame starts when the wire frees or when it was queued, whichever
    // is later, so this thread's own bookkeeping never idles the link.
    const std::int64_t start_ns = std::max(frame->queued_ns, wire.end_ns());
    if (frame->on_start) frame->on_start();
    FaultOutcome outcome;
    if (faults_) outcome = faults_->injector.next_frame(link_clock.elapsed_s());

    // Pacing: even a frame destined to vanish occupies the sender's NIC for
    // its serialization time, exactly like a packet lost downstream.
    const std::size_t frame_bytes = frame->wire_bytes + config_.frame_overhead_bytes;
    const std::int64_t end_ns =
        wire.add(start_ns, transfer_ns(frame_bytes, config_.bandwidth_bytes_per_sec));
    wait_until(end_ns, queue_.size() > 0 ? Wake::kPlain : Wake::kPrecise);

    wire_bytes_.inc(frame->wire_bytes);
    frames_.inc();
    if (faults_) faults_->count(outcome);
    if (outcome.drop) continue;
    const std::int64_t due_ns = end_ns + config_.latency_ns + outcome.extra_latency_ns;
    in_flight_.push(InFlight{std::move(*frame), outcome, start_ns, due_ns});
  }
}

void PacedPipe::delivery_loop() {
  while (auto item = in_flight_.pop()) {
    wait_until(item->due_ns, in_flight_.size() > 0 ? Wake::kPlain : Wake::kPrecise);
    // The stage covers serialization plus propagation and ends as the far
    // end takes the frame, like the endpoint's queue.wait.
    Stage::since(item->start_ns, StageId::kPipeTransmit, &transmit_ms_, trace_,
                 item->frame.trace_id, pid_, item->frame.wire_bytes);
    ProfScope prof("deliver");
    item->frame.deliver(item->outcome);
  }
}

}  // namespace xt
