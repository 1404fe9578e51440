#include "comm/endpoint.h"

#include <utility>

#include "common/clock.h"
#include "common/log.h"
#include "common/thread_util.h"
#include "obs/catalog.h"

namespace xt {
namespace {

/// The send buffer follows the broker's `[comm]` overload policy when one is
/// configured; otherwise a legacy capacity becomes a degenerate config whose
/// high and low watermarks coincide, reproducing the historical
/// block-until-a-slot-frees semantics exactly (capacity 0 stays unbounded).
OverloadConfig buffer_config(const OverloadConfig& overload,
                             std::size_t capacity) {
  if (overload.bounded()) return overload;
  OverloadConfig legacy;
  legacy.high_watermark = capacity;
  legacy.low_watermark = capacity;
  return legacy;
}

}  // namespace

Endpoint::Endpoint(NodeId id, Broker& broker, std::size_t send_capacity)
    : id_(id),
      broker_(broker),
      inst_{broker.metrics().counter(metric::xt_messages_sent_total, {id.machine}),
            broker.metrics().counter(metric::xt_bytes_sent_total, {id.machine}),
            broker.metrics().counter(metric::xt_messages_received_total, {id.machine}),
            broker.metrics().counter(metric::xt_bytes_received_total, {id.machine}),
            broker.metrics().counter(metric::xt_store_deep_copy_bytes_total,
                                     {id.machine}),
            stage_histogram(broker.metrics(), StageId::kSerialize, {id.machine}),
            stage_histogram(broker.metrics(), StageId::kStorePut, {id.machine}),
            stage_histogram(broker.metrics(), StageId::kRecv, {id.machine}),
            broker.metrics().histogram(metric::xt_transmission_ms, {id.machine}),
            stage_histogram(broker.metrics(), StageId::kCompress, {id.machine}),
            broker.metrics().histogram(metric::xt_codec_decompress_ms, {id.machine}),
            broker.metrics().counter(metric::xt_codec_bytes_in_total, {id.machine}),
            broker.metrics().counter(metric::xt_codec_bytes_out_total, {id.machine}),
            broker.metrics().counter(metric::xt_codec_messages_compressed_total,
                                     {id.machine}),
            broker.metrics().counter(metric::xt_messages_shed_total,
                                     {id.machine, "experience", "sendbuf_overflow"}),
            broker.metrics().counter(metric::xt_messages_shed_total,
                                     {id.machine, "experience", "recvbuf_overflow"})},
      id_queue_(broker.register_endpoint(id)),
      send_buffer_(buffer_config(broker.options().overload, send_capacity),
                   [this](TrafficClass /*cls*/, Outbound&& /*message*/) {
                     inst_.shed_send.inc();
                   }),
      recv_buffer_(broker.options().overload,
                   [this](TrafficClass /*cls*/, Message&& /*message*/) {
                     inst_.shed_recv.inc();
                   }) {
  sender_ = std::thread([this] {
    set_current_thread_name("snd-" + id_.name());
    sender_loop();
  });
  receiver_ = std::thread([this] {
    set_current_thread_name("rcv-" + id_.name());
    receiver_loop();
  });
}

Endpoint::~Endpoint() { stop(); }

void Endpoint::stop() {
  if (stopped_.exchange(true)) return;
  send_buffer_.close();
  if (sender_.joinable()) sender_.join();
  broker_.unregister_endpoint(id_);  // closes the ID queue
  if (receiver_.joinable()) receiver_.join();
  recv_buffer_.close();
}

bool Endpoint::send(Outbound message) {
  return send(std::move(message), nullptr);
}

bool Endpoint::send(Outbound message, const std::function<void()>& on_wait) {
  // A body no destination fetches would end as neither a delivery nor a drop.
  if (message.header.dsts.empty()) return false;
  const TrafficClass cls = message.header.tclass();
  return send_buffer_.push_gated(cls, std::move(message), on_wait);
}

std::optional<Message> Endpoint::receive() { return recv_buffer_.pop(); }

std::optional<Message> Endpoint::receive_for(std::chrono::milliseconds timeout) {
  return recv_buffer_.pop_for(timeout);
}

std::optional<Message> Endpoint::try_receive() { return recv_buffer_.try_pop(); }

void Endpoint::sender_loop() {
  TraceCollector* trace = broker_.trace();
  const double ipc_bw = broker_.options().ipc_bandwidth_bytes_per_sec;
  Pacer put_pacer;  // the modeled serialize+copy into the store
  while (auto outbound = send_buffer_.pop()) {
    MessageHeader header = std::move(outbound->header);

    // Deferred serialization runs here, off the workhorse's critical path.
    // The producer, and what it captured (a whole RolloutBatch), goes as
    // soon as its body exists, not after the put.
    Payload body;
    if (outbound->producer) {
      Stage serialize(StageId::kSerialize, &inst_.serialize_ms, trace,
                      header.trace_id(), id_.machine);
      body = make_payload(std::exchange(outbound->producer, nullptr)());
      serialize.set_bytes(body->size());
    } else {
      body = std::move(outbound->body);
    }
    inst_.bytes_sent.inc(body->size());

    EncodedBody encoded;
    {
      // The codec's series times only the bodies LZ4 attempts (its own rule).
      const CompressionConfig& compression = broker_.options().compression;
      Histogram* attempt_ms =
          compression.attempts(body->size()) ? &inst_.compress_ms : nullptr;
      const Stage compress(StageId::kCompress, attempt_ms, trace, header.trace_id(),
                           id_.machine, body->size());
      encoded = maybe_compress(body, compression);
    }
    inst_.codec_bytes_in.inc(body->size());
    inst_.codec_bytes_out.inc(encoded.data->size());
    if (encoded.compressed) inst_.messages_compressed.inc();

    // Pay the modeled object-store insertion cost here, on the sender
    // thread — the workhorse already moved on. The store.put span covers
    // pacing + insert: together they are the per-message serialize/copy cost
    // of paper Fig. 8(b). The body goes into the store once; the modeled
    // copy is paced chunk by chunk, so chunk i ends at the put's start plus
    // the bytes through chunk i at ipc_bw, and each chunk's header is
    // submitted as the chunk is sealed, so the router streams it while the
    // rest is put. Each chunk's header carries a claim on the body; the last
    // takes the sender's own.
    {
      const Stage put(StageId::kStorePut, &inst_.store_put_ms, trace, header.trace_id(),
                      id_.machine, encoded.data->size());
      const std::int64_t ready_ns = now_ns();

      header.body_size = encoded.data->size();
      header.uncompressed_size = encoded.compressed ? encoded.uncompressed_size : 0;
      const std::uint64_t chunks = header.chunk_count();

      StoreClaim claim = broker_.store().hold(std::move(encoded.data));
      bool submitted = true;
      for (std::uint32_t i = 0; i < chunks && submitted; ++i) {
        const bool last = i + 1 == chunks;
        // An earlier chunk that wakes late only delays its own header: the
        // next chunk's deadline is absolute. The router sees the last at once.
        const std::int64_t cost_ns =
            transfer_ns(chunk_length(header.body_size, i), ipc_bw);
        wait_until(put_pacer.add(ready_ns, cost_ns),
                   last ? Wake::kPrecise : Wake::kPlain);
        header.chunk_index = i;
        submitted = broker_.submit(header, last ? std::move(claim) : claim.share());
      }
      if (!submitted) continue;  // the broker is shutting down
    }
    inst_.messages_sent.inc();
  }
}

void Endpoint::receiver_loop() {
  TraceCollector* trace = broker_.trace();
  while (auto routed = id_queue_->pop()) {
    MessageHeader header = std::move(routed->header);

    // Destination ID-queue wait: router enqueue -> this pop.
    if (routed->routed_ns > 0) {
      Stage::since(routed->routed_ns, StageId::kQueueWait,
                   &broker_.queue_wait_histogram(), trace, header.trace_id(),
                   id_.machine, header.body_size);
    }

    Stage recv(StageId::kRecv, &inst_.recv_decode_ms, trace, header.trace_id(),
               id_.machine, header.body_size);
    Payload stored = routed->claim.fetch();
    if (broker_.options().deep_copy_store) {
      // Ablation: pay the copy that the zero-copy object store avoids.
      stored = make_payload(Bytes(*stored));
      inst_.deep_copy_bytes.inc(stored->size());
    }
    // The codec's series times the unpacking of a packed body alone.
    const std::int64_t unpack_start_ns = header.compressed() ? now_ns() : 0;
    auto body = maybe_decompress(stored, header.compressed(), header.uncompressed_size);
    if (header.compressed()) {
      inst_.decompress_ms.observe(ns_to_ms(now_ns() - unpack_start_ns));
    }
    if (!body) {
      XT_LOG_ERROR << id_.name() << ": corrupt body for msg " << header.msg_id;
      continue;
    }
    recv.finish();

    messages_received_.fetch_add(1, std::memory_order_relaxed);
    inst_.messages_received.inc();
    inst_.bytes_received.inc((*body)->size());
    const double transmitted_ms = ns_to_ms(now_ns() - header.created_ns);
    inst_.transmission_ms.observe(transmitted_ms);
    if (latency_recorder_ != nullptr) latency_recorder_->add(transmitted_ms);
    // Never stall the receiver thread: a bounded buffer sheds experience
    // (counted as recvbuf_overflow) so control keeps flowing.
    const TrafficClass cls = header.tclass();
    recv_buffer_.push(cls, Message{std::move(header), std::move(*body)});
  }
}

}  // namespace xt
