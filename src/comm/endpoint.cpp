#include "comm/endpoint.h"

#include "common/clock.h"
#include "common/log.h"
#include "common/thread_util.h"
#include "obs/profiler.h"

namespace xt {
namespace {

std::string machine_label(const char* base, std::uint16_t machine) {
  return std::string(base) + "{machine=\"" + std::to_string(machine) + "\"}";
}

std::string shed_label(std::uint16_t machine, const char* reason) {
  return std::string("xt_messages_shed_total{machine=\"") +
         std::to_string(machine) + "\",class=\"experience\",reason=\"" +
         reason + "\"}";
}

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
      inst_{broker.metrics().counter(
                machine_label("xt_messages_sent_total", id.machine)),
            broker.metrics().counter(
                machine_label("xt_bytes_sent_total", id.machine)),
            broker.metrics().counter(
                machine_label("xt_messages_received_total", id.machine)),
            broker.metrics().counter(
                machine_label("xt_bytes_received_total", id.machine)),
            broker.metrics().counter(
                machine_label("xt_store_deep_copy_bytes_total", id.machine)),
            broker.metrics().histogram(
                machine_label("xt_send_serialize_ms", id.machine)),
            broker.metrics().histogram(
                machine_label("xt_store_put_ms", id.machine)),
            broker.metrics().histogram(
                machine_label("xt_recv_decode_ms", id.machine)),
            broker.metrics().histogram(
                machine_label("xt_transmission_ms", id.machine))},
      id_queue_(broker.register_endpoint(id)),
      send_buffer_(buffer_config(broker.options().overload, send_capacity),
                   [this](TrafficClass /*cls*/, Outbound&& /*message*/) {
                     shed_send_->inc();
                   }),
      recv_buffer_(broker.options().overload,
                   [this](TrafficClass /*cls*/, Message&& /*message*/) {
                     shed_recv_->inc();
                   }) {
  shed_send_ = &broker.metrics().counter(
      shed_label(id.machine, "sendbuf_overflow"));
  shed_recv_ = &broker.metrics().counter(
      shed_label(id.machine, "recvbuf_overflow"));
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
  const TrafficClass cls = message.header.tclass;
  return send_buffer_.push_gated(cls, std::move(message), on_wait);
}

std::optional<Message> Endpoint::receive() { return recv_buffer_.pop(); }

std::optional<Message> Endpoint::receive_for(std::chrono::milliseconds timeout) {
  return recv_buffer_.pop_for(timeout);
}

std::optional<Message> Endpoint::try_receive() { return recv_buffer_.try_pop(); }

void Endpoint::sender_loop() {
  TraceCollector* trace = broker_.trace();
  while (auto outbound = send_buffer_.pop()) {
    MessageHeader header = std::move(outbound->header);

    // Deferred serialization runs here, off the workhorse's critical path.
    Payload body;
    if (outbound->producer) {
      ProfScope prof("serialize");
      TraceScope span(trace, "msg.serialize", "comm", header.trace_id(),
                      id_.machine);
      const Stopwatch clock;
      body = make_payload(outbound->producer());
      inst_.serialize_ms.observe(clock.elapsed_ms());
      span.set_bytes(body->size());
    } else {
      body = std::move(outbound->body);
    }
    counters_.bytes_sent.fetch_add(body->size(), std::memory_order_relaxed);
    inst_.bytes_sent.inc(body->size());

    EncodedBody encoded;
    {
      ProfScope prof("compress");
      TraceScope span(trace, "msg.compress", "comm", header.trace_id(),
                      id_.machine, body->size());
      encoded = maybe_compress(body, broker_.options().compression,
                               &broker_.codec_instruments());
    }

    // Pay the modeled object-store insertion cost here, on the sender
    // thread — the workhorse already moved on. The store.put span covers
    // pacing + insert: together they are the per-message serialize/copy cost
    // of paper Fig. 8(b). The body goes into the store once; the modeled
    // copy is paced chunk by chunk against absolute deadlines, so it still
    // takes size / ipc_bw in all, and each chunk's header is submitted as
    // the chunk is sealed, so the router streams it while the rest is put.
    {
      ProfScope prof("store.put");
      TraceScope span(trace, "store.put", "comm", header.trace_id(),
                      id_.machine, encoded.data->size());
      const Stopwatch clock;
      const double ipc_bw = broker_.options().ipc_bandwidth_bytes_per_sec;

      header.body_size = encoded.data->size();
      header.compressed = encoded.compressed;
      header.uncompressed_size = encoded.uncompressed_size;
      header.chunk_count =
          static_cast<std::uint32_t>(chunk_count_for(header.body_size));

      const std::uint32_t fetches = broker_.expected_fetches(header);
      header.object_id = broker_.store().put(std::move(encoded.data), fetches);

      bool submitted = true;
      std::uint64_t sealed = 0;
      for (std::uint32_t i = 0; i < header.chunk_count && submitted; ++i) {
        sealed += chunk_length(header.body_size, i);
        if (ipc_bw > 0.0) {
          const double due_ns = static_cast<double>(sealed) / ipc_bw * 1e9;
          precise_sleep_ns(static_cast<std::int64_t>(due_ns) - clock.elapsed_ns());
        }
        header.chunk_index = i;
        submitted = broker_.submit(header);
      }
      inst_.store_put_ms.observe(clock.elapsed_ms());
      if (!submitted) {
        // Broker is shutting down: balance the store references we created.
        for (std::uint32_t i = 0; i < fetches; ++i) {
          broker_.store().release(header.object_id);
        }
        continue;
      }
    }
    counters_.messages_sent.fetch_add(1, std::memory_order_relaxed);
    inst_.messages_sent.inc();
  }
}

void Endpoint::receiver_loop() {
  TraceCollector* trace = broker_.trace();
  while (auto routed = id_queue_->pop()) {
    MessageHeader header = std::move(routed->header);

    // Destination ID-queue wait: router enqueue -> this pop.
    if (routed->routed_ns > 0) {
      const std::int64_t waited_ns = now_ns() - routed->routed_ns;
      broker_.queue_wait_histogram().observe(ns_to_ms(waited_ns));
      if (trace != nullptr && trace->enabled()) {
        TraceSpan span;
        span.name = "queue.wait";
        span.category = "comm";
        span.trace_id = header.trace_id();
        span.start_ns = routed->routed_ns;
        span.dur_ns = waited_ns;
        span.pid = id_.machine;
        span.bytes = header.body_size;
        trace->record(span);
      }
    }

    ProfScope prof("recv");
    TraceScope recv_span(trace, "msg.recv", "comm", header.trace_id(),
                         id_.machine, header.body_size);
    const Stopwatch decode_clock;
    Payload stored = broker_.store().fetch(header.object_id);
    if (!stored) {
      XT_LOG_WARN << id_.name() << ": body missing for msg " << header.msg_id;
      continue;
    }
    if (broker_.options().deep_copy_store) {
      // Ablation: pay the copy that the zero-copy object store avoids.
      stored = make_payload(Bytes(*stored));
      inst_.deep_copy_bytes.inc(stored->size());
    }
    auto body = maybe_decompress(stored, header.compressed,
                                 header.uncompressed_size,
                                 &broker_.codec_instruments());
    if (!body) {
      XT_LOG_ERROR << id_.name() << ": corrupt body for msg " << header.msg_id;
      continue;
    }
    inst_.recv_decode_ms.observe(decode_clock.elapsed_ms());
    recv_span.finish();

    counters_.messages_received.fetch_add(1, std::memory_order_relaxed);
    counters_.bytes_received.fetch_add((*body)->size(), std::memory_order_relaxed);
    inst_.messages_received.inc();
    inst_.bytes_received.inc((*body)->size());
    inst_.transmission_ms.observe(ns_to_ms(now_ns() - header.created_ns));
    if (latency_recorder_ != nullptr) {
      latency_recorder_->add(ns_to_ms(now_ns() - header.created_ns));
    }
    // Never stall the receiver thread: a bounded buffer sheds experience
    // (counted as recvbuf_overflow) so control keeps flowing.
    const TrafficClass cls = header.tclass;
    recv_buffer_.push(cls, Message{std::move(header), std::move(*body)});
  }
}

}  // namespace xt
