#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "common/stats.h"
#include "comm/broker.h"
#include "comm/message.h"
#include "comm/overload.h"

namespace xt {

/// The communication half of a logical explorer/learner/controller process
/// (paper Fig. 2(a)): a send buffer drained by a dedicated sender thread and
/// a receive buffer filled by a dedicated receiver thread.
///
/// The workhorse thread (rollout worker or trainer) only touches the local
/// buffers — `send` and `receive` — while serialization, compression,
/// object-store insertion and routing all happen on the sender/receiver/
/// router threads. That is the communication-computation overlap the paper
/// is built around: the instant a message lands in the send buffer it starts
/// flowing toward its destinations, regardless of what the workhorse (or the
/// recipient) is doing.
class Endpoint {
 public:
  /// `send_capacity` bounds the send buffer (0 = unbounded): when full,
  /// send() blocks the workhorse until the sender thread drains a slot.
  /// This is the natural backpressure of a fixed-size shared-memory object
  /// store (Arrow plasma in the Python system) and keeps memory bounded
  /// when explorers outproduce the channel. A bounded `[comm]` overload
  /// config on the broker overrides it. The receive buffer follows that
  /// overload config: it sheds experience instead of stalling the receiver
  /// thread, and is unbounded by default.
  Endpoint(NodeId id, Broker& broker, std::size_t send_capacity = 0);
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  [[nodiscard]] const NodeId& id() const { return id_; }

  /// Enqueue a message for asynchronous transmission. Control returns
  /// immediately; data classes go through the send-credit gate when the
  /// buffer is bounded (experience blocks until the sender drains below the
  /// low watermark — that pause is how backpressure reaches the producer).
  /// False once the endpoint is stopped, and for a message with no
  /// destination, which is not sent.
  bool send(Outbound message);

  /// Same, invoking `on_wait` roughly every 5ms while gated so the caller
  /// can keep heartbeating (an explorer paused on a full send buffer must
  /// not look dead to the supervisor).
  bool send(Outbound message, const std::function<void()>& on_wait);

  /// Blocking receive; nullopt when the endpoint has been stopped and the
  /// receive buffer is drained.
  std::optional<Message> receive();

  /// Receive with timeout.
  std::optional<Message> receive_for(std::chrono::milliseconds timeout);

  /// Non-blocking receive.
  std::optional<Message> try_receive();

  /// Messages this endpoint put into its receive buffer. The registry's
  /// `xt_messages_received_total{machine}` sums every endpoint of a machine;
  /// this count tells one endpoint's share apart.
  [[nodiscard]] std::uint64_t messages_received() const {
    return messages_received_.load(std::memory_order_relaxed);
  }

  /// Optional: record per-message transmission latency (created -> receive
  /// buffer), in milliseconds. Used by the Fig. 8-10 latency decompositions.
  void set_latency_recorder(LatencyRecorder* recorder) { latency_recorder_ = recorder; }

  /// Stop both threads, unregister from the broker (idempotent).
  void stop();

 private:
  /// Per-machine telemetry handles (shared by every endpoint on the broker's
  /// machine), resolved once at construction.
  struct Instruments {
    Counter& messages_sent;
    Counter& bytes_sent;
    Counter& messages_received;
    Counter& bytes_received;
    Counter& deep_copy_bytes;       ///< ablation-only copies
    Histogram& serialize_ms;        ///< deferred producer on the sender thread
    Histogram& store_put_ms;        ///< modeled IPC pacing + store insert
    Histogram& recv_decode_ms;      ///< fetch + decompress on the receiver thread
    Histogram& transmission_ms;     ///< message created -> receive buffer
    // Body compression (xt_codec_*): bytes in and out of maybe_compress,
    // LZ4 time per attempt, and bodies that shipped packed.
    Histogram& compress_ms;
    Histogram& decompress_ms;
    Counter& codec_bytes_in;
    Counter& codec_bytes_out;
    Counter& messages_compressed;
    Counter& shed_send;  ///< xt_messages_shed_total{...sendbuf_overflow}
    Counter& shed_recv;  ///< xt_messages_shed_total{...recvbuf_overflow}
  };

  void sender_loop();
  void receiver_loop();

  const NodeId id_;
  Broker& broker_;
  Instruments inst_;
  std::shared_ptr<IdQueue> id_queue_;

  ClassedQueue<Outbound> send_buffer_;
  ClassedQueue<Message> recv_buffer_;

  std::atomic<std::uint64_t> messages_received_{0};
  LatencyRecorder* latency_recorder_ = nullptr;

  std::thread sender_;
  std::thread receiver_;
  std::atomic<bool> stopped_{false};
};

}  // namespace xt
