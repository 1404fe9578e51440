#include "netsim/fabric.h"

#include <optional>
#include <utility>

namespace xt {

Fabric::Fabric(LinkConfig default_link, ReliabilityConfig reliability)
    : default_link_(default_link), reliability_(reliability) {}

Fabric::~Fabric() { stop(); }

void Fabric::connect(Broker& a, Broker& b) { connect(a, b, default_link_); }

void Fabric::connect(Broker& a, Broker& b, LinkConfig link) {
  // Both pipes must exist before either direction is wired: with
  // reliability on, each direction's channel acks over the reverse pipe.
  PacedPipe* ab = make_pipe(a, b, link);
  PacedPipe* ba = make_pipe(b, a, link);
  connect_one_way(a, b, link, ab, ba);
  connect_one_way(b, a, link, ba, ab);
}

PacedPipe* Fabric::make_pipe(Broker& from, Broker& to,
                             const LinkConfig& link) {
  const std::string name =
      "m" + std::to_string(from.machine()) + ">m" + std::to_string(to.machine());
  const std::string label = "{link=\"" + name + "\"}";
  PacedPipe::Observability obs;
  obs.trace = from.trace();
  obs.transmit_ms = &from.metrics().histogram("xt_pipe_transmit_ms" + label);
  obs.wire_bytes = &from.metrics().counter("xt_pipe_wire_bytes_total" + label);
  obs.frames = &from.metrics().counter("xt_pipe_frames_total" + label);
  obs.pid = from.machine();
  if (link.faults.enabled()) {
    auto fault_counter = [&](const char* kind) {
      return &from.metrics().counter(
          std::string("xt_faults_injected_total{link=\"") + name +
          "\",kind=\"" + kind + "\"}");
    };
    obs.faults_dropped = fault_counter("drop");
    obs.faults_corrupted = fault_counter("corrupt");
    obs.faults_delayed = fault_counter("delay");
    obs.faults_blackout = fault_counter("blackout");
  }
  if (link.overload.bounded()) {
    obs.frames_shed =
        &from.metrics().counter("xt_frames_shed_total" + label);
  }
  auto pipe = std::make_unique<PacedPipe>(name, link, obs);
  PacedPipe* raw = pipe.get();
  std::scoped_lock lock(mu_);
  pipes_.push_back(std::move(pipe));
  return raw;
}

void Fabric::connect_one_way(Broker& from, Broker& to, const LinkConfig& link,
                             PacedPipe* data_pipe, PacedPipe* ack_pipe) {
  Broker* target = &to;
  const std::string name = data_pipe->name();
  const std::string label = "{link=\"" + name + "\"}";

  if (reliability_.enabled) {
    ReliableChannel::Instruments inst;
    inst.retransmits =
        &from.metrics().counter("xt_retransmits_total" + label);
    inst.give_ups =
        &from.metrics().counter("xt_retransmit_give_ups_total" + label);
    inst.duplicates =
        &from.metrics().counter("xt_link_duplicate_frames_total" + label);
    inst.acks = &from.metrics().counter("xt_link_acks_total" + label);
    inst.link_state = &from.metrics().gauge("xt_link_state" + label);
    inst.breaker_opens =
        &from.metrics().counter("xt_link_breaker_opens_total" + label);
    inst.breaker_shed =
        &from.metrics().counter("xt_link_breaker_shed_total" + label);
    auto channel = std::make_unique<ReliableChannel>(
        name, reliability_, *data_pipe, *target, inst);
    ReliableChannel* ch = channel.get();
    // Acks ride the reverse pipe so they share its fault plan: a lost or
    // corrupted ack frame leaves its seq pending and the sender
    // retransmits.
    const std::size_t ack_wire = reliability_.ack_wire_bytes;
    channel->set_ack_sender([ch, ack_pipe, ack_wire](std::uint64_t seq) {
      // Acks are control: a bounded reverse pipe must never shed them
      // behind bulk experience, or every loss becomes a retransmit storm.
      ack_pipe->send_faultable(
          ack_wire,
          [ch, seq](const FaultOutcome& o) {
            if (!o.corrupt) ch->on_ack(seq);
          },
          /*trace_id=*/0, TrafficClass::kControl);
    });
    from.set_remote_sink(to.machine(),
                         [ch](MessageHeader header, Payload body) {
                           ch->send(header, std::move(body));
                         });
    std::scoped_lock lock(mu_);
    channels_.push_back(std::move(channel));
    return;
  }

  // Unreliable path. The frame CRC is stamped only when the link can
  // actually corrupt frames, keeping the fault-free benchmark path free of
  // checksum work. (Corrupt outcomes only occur with faults enabled, so a
  // corruptible frame always carries its CRC.)
  const bool stamp_crc = link.faults.enabled();
  from.set_remote_sink(
      to.machine(),
      [data_pipe, target, stamp_crc](MessageHeader header, Payload body) {
        auto frame = std::make_shared<WireFrame>(
            encode_wire_frame(header, std::move(body), stamp_crc));
        data_pipe->send_faultable(
            frame->wire_size(),
            [target, frame](const FaultOutcome& outcome) {
              std::optional<Message> message =
                  decode_wire_frame(apply_corruption(*frame, outcome));
              if (!message.has_value()) {
                target->reject_corrupt_frame();
                return;
              }
              target->deliver_remote(std::move(message->header),
                                     std::move(message->body));
            },
            frame->trace_id, frame->tclass);
      });
}

void Fabric::stop() {
  std::scoped_lock lock(mu_);
  // Channels first (their retransmitter threads enqueue onto the pipes),
  // then the pipes.
  for (auto& channel : channels_) channel->stop();
  for (auto& pipe : pipes_) pipe->stop();
}

std::uint64_t Fabric::total_bytes() const {
  std::scoped_lock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& pipe : pipes_) total += pipe->bytes_transferred();
  return total;
}

std::vector<const PacedPipe*> Fabric::pipes() const {
  std::scoped_lock lock(mu_);
  std::vector<const PacedPipe*> out;
  out.reserve(pipes_.size());
  for (const auto& pipe : pipes_) out.push_back(pipe.get());
  return out;
}

std::vector<const ReliableChannel*> Fabric::channels() const {
  std::scoped_lock lock(mu_);
  std::vector<const ReliableChannel*> out;
  out.reserve(channels_.size());
  for (const auto& channel : channels_) out.push_back(channel.get());
  return out;
}

}  // namespace xt
