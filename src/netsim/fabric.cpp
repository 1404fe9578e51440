#include "netsim/fabric.h"

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
  auto pipe = std::make_unique<PacedPipe>(
      "m" + std::to_string(from.machine()) + ">m" + std::to_string(to.machine()),
      link, from.metrics(), from.trace(), from.machine());
  PacedPipe* raw = pipe.get();
  std::scoped_lock lock(mu_);
  pipes_.push_back(std::move(pipe));
  return raw;
}

void Fabric::connect_one_way(Broker& from, Broker& to, const LinkConfig& link,
                             PacedPipe* data_pipe, PacedPipe* ack_pipe) {
  Broker* target = &to;

  if (reliability_.enabled) {
    auto channel = std::make_unique<ReliableChannel>(
        data_pipe->name(), reliability_, *data_pipe, *target, from.metrics());
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
              target->deliver_frame(apply_corruption(*frame, outcome),
                                    /*retransmits=*/false);
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
  for (const auto& pipe : pipes_) total += pipe->wire_bytes();
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
