#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "compress/codec.h"
#include "comm/message.h"
#include "comm/object_store.h"
#include "comm/overload.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace xt {

struct WireFrame;

/// What the router puts into a destination's ID queue: the per-destination
/// header copy, the destination's claim on the body, through which its
/// receiver fetches it, and the router's enqueue timestamp, which gives the
/// destination-queue-wait hop of the message lifecycle (receiver pop time
/// minus routed_ns) without growing MessageHeader itself.
struct RoutedHeader {
  MessageHeader header;
  std::int64_t routed_ns = 0;
  StoreClaim claim;
};

/// Per-destination queue of message headers ("ID queue" in paper Fig. 2(a)):
/// the router passes body claims + metadata to each destination process here.
/// Classed: a heartbeat routed into a deep inbox is still popped next, and
/// under a bounded `[comm]` overload config the data plane sheds experience
/// instead of growing without limit.
using IdQueue = ClassedQueue<RoutedHeader>;

/// Sink for messages leaving this machine; the network simulator implements
/// it with a bandwidth-paced link whose far end calls deliver_frame() on
/// the target machine's broker.
using RemoteSink = std::function<void(MessageHeader, Payload)>;

/// Why the broker refused to deliver a message. Each reason has its own
/// `xt_broker_drops_by_reason_total{machine=...,reason=...}` counter so chaos runs
/// can tell integrity rejects from routing failures at a glance.
enum class DropReason : std::uint8_t {
  kUnknownDest = 0,     ///< destination was never registered
  kClosedDest = 1,      ///< destination queue closed (endpoint shut down)
  kCrcFail = 2,         ///< a frame failed its CRC on a link that never resends it
  kNoSink = 3,          ///< no forwarding sink for the destination machine
  kNoLocalDest = 4,     ///< remote delivery addressed nothing on this machine
  kIncompleteBody = 5,  ///< a remote body lost a chunk, so it never completed
  kCount,
};

[[nodiscard]] const char* drop_reason_name(DropReason reason);

/// The broker process (paper Section 3.2.1): owns the shared-memory
/// communicator (header queues + object store) and runs the
/// algorithm-agnostic router on one thread, `router-mN`.
///
/// The router only parses headers — source, destinations, chunk — and
/// never inspects message bodies, so the same broker serves every DRL
/// algorithm (and the dummy transmission benchmark) unchanged.
class Broker {
 public:
  struct Options {
    CompressionConfig compression;
    bool deep_copy_store = false;  ///< ablation: copy bodies instead of sharing
    /// Modeled serialize+copy bandwidth into the shared-memory object store
    /// (0 = unpaced). The sender thread sleeps body_size / bandwidth per
    /// message, chunk by chunk, reproducing the per-byte cost the Python
    /// system pays when pickling into the Arrow store — off the workhorse's
    /// critical path, which is exactly the overlap the paper exploits.
    /// Benchmarks set this to the paper's measured effective rate (~65 MB/s:
    /// 13.8 MB IMPALA rollouts took 212 ms end to end in XingTian, Fig. 8(b)).
    double ipc_bandwidth_bytes_per_sec = 0.0;
    /// Telemetry sinks; the runtime injects its per-run instances here. A
    /// broker without a registry records into one it owns, and a broker
    /// without a collector records no spans.
    MetricsRegistry* metrics = nullptr;
    TraceCollector* trace = nullptr;
    /// Overload policy for the router queue and every ID queue
    /// (`[comm] overload_high_watermark` etc.). Default = unbounded, the
    /// historical behaviour.
    OverloadConfig overload;
  };

  explicit Broker(std::uint16_t machine);
  Broker(std::uint16_t machine, Options options);
  ~Broker();

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  [[nodiscard]] std::uint16_t machine() const { return machine_; }
  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] ObjectStore& store() { return store_; }

  /// Telemetry sinks resolved from Options; trace() is null when no
  /// collector was injected.
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] TraceCollector* trace() { return trace_; }
  /// Destination-queue wait histogram (observed by endpoint receivers).
  [[nodiscard]] Histogram& queue_wait_histogram() { return inst_.queue_wait_ms; }

  /// Register a local endpoint; the returned ID queue is where the router
  /// will deliver headers addressed to `id`. Thread-safe.
  [[nodiscard]] std::shared_ptr<IdQueue> register_endpoint(const NodeId& id);

  /// Unregister and close the endpoint's ID queue. Headers already routed
  /// remain poppable until drained. Thread-safe.
  void unregister_endpoint(const NodeId& id);

  /// Submit a header with a claim on its body in this machine's store. A
  /// body of several chunks is submitted as one header per chunk, in order,
  /// as each chunk is sealed, each with its own claim; the router forwards
  /// each chunk to remote machines at once and shares the last one's claim
  /// with each local destination. Returns false if the broker is shutting
  /// down. The claim is spent either way: a header that is shed, refused or
  /// skipped releases its body's claim by being destroyed.
  [[nodiscard]] bool submit(MessageHeader header, StoreClaim claim);

  /// Install the forwarding sink toward another machine's broker.
  void set_remote_sink(std::uint16_t machine, RemoteSink sink);

  /// The one ingress for wire frames arriving from another machine. A frame
  /// that fails its CRC or does not decode counts as a corrupted frame and
  /// returns false, so a link that retransmits (`retransmits`) withholds its
  /// ack and a resend repairs it; where nothing resends it, the reject is
  /// also a kCrcFail drop. Otherwise the frame's chunk joins its body, and
  /// once every chunk is in, the body is re-hosted in the local object store
  /// and the header fanned out to local ID queues: local workhorses never
  /// perceive the difference (Section 3.2.1). Routing drops (no local
  /// destination, closed queue, a body that lost a chunk) are counted here
  /// and return true, because retransmitting cannot repair them.
  ///
  /// A link that does not retransmit delivers one sender's messages of one
  /// class in order: a gap in a body's chunks, its last chunk arriving
  /// short, or a newer message from the same sender and class ends the body
  /// as one kIncompleteBody drop. Chunks from a link that retransmits may
  /// arrive out of order; a body that never completes there stays until the
  /// table holds kMaxPartialBodies and it is the least recently extended.
  bool deliver_frame(const WireFrame& frame, bool retransmits);

  /// Remote bodies with some chunks in and some missing.
  static constexpr std::size_t kMaxPartialBodies = 64;
  [[nodiscard]] std::size_t partial_bodies() const;

  /// Stop the router thread (idempotent). In-flight headers are drained.
  void stop();

  /// Messages that could not be delivered (any reason): this machine's
  /// `xt_broker_dropped_total{machine=...}`, next to the per-reason
  /// counters `xt_broker_drops_by_reason_total{machine=...,reason=...}`.
  [[nodiscard]] std::uint64_t dropped_messages() const;

  /// Drops attributed to one specific reason.
  [[nodiscard]] std::uint64_t dropped_messages(DropReason reason) const;

  /// Cross-machine frames deliver_frame rejected,
  /// `xt_frames_corrupted_total{machine=...}`. Only those from a link that
  /// does not retransmit are kCrcFail drops as well.
  [[nodiscard]] std::uint64_t corrupted_frames() const;

  /// Experience messages shed by bounded queues on this machine (router
  /// queue + ID queues). Also `xt_messages_shed_total{machine,class,reason}`.
  /// Deliberately separate from dropped_messages(): a shed is the overload
  /// policy working as designed, a drop is a routing/integrity failure.
  [[nodiscard]] std::uint64_t shed_messages() const;

  /// Depth snapshot for the saturation sampler: the router's header queue
  /// ("router-mN") and every registered endpoint's ID queue ("inbox-<node>").
  /// Thread-safe; a point-in-time read, not a fence.
  [[nodiscard]] std::vector<std::pair<std::string, std::size_t>> queue_depths()
      const;

 private:
  /// Telemetry handles resolved once at construction; hot-path updates are
  /// atomic adds on these references.
  struct Instruments {
    Counter& routed;            ///< headers delivered to local ID queues
    Counter& forwarded;         ///< bodies forwarded to remote machines
    Counter& rehosted;          ///< remote bodies re-hosted locally
    Counter& dropped;
    Histogram& route_ms;        ///< one route() pass
    Histogram& queue_wait_ms;   ///< ID-queue wait (router enqueue -> receiver pop)
    Counter& corrupted;         ///< cross-machine frames that failed decode
    Counter& shed_router;       ///< xt_messages_shed_total{...router_overflow}
    Counter& shed_inbox;        ///< xt_messages_shed_total{...inbox_overflow}
  };

  /// A remote body streaming in as chunks.
  struct PartialBody {
    NodeId src;
    TrafficClass tclass = TrafficClass::kExperience;
    bool in_order = true;
    bool lost = false;          ///< a chunk is gone for good (drop counted)
    std::uint32_t arrived = 0;
    std::uint64_t touched = 0;  ///< ingress order of its latest chunk
    Payload body;
  };

  /// A submitted chunk header and the claim it carries.
  struct Submitted {
    MessageHeader header;
    StoreClaim claim;
  };

  void router_loop();
  void route(MessageHeader header, StoreClaim claim);
  /// Account one remote chunk, which arrived in order unless its link
  /// retransmits; true when it completes its body, which is then in `body`.
  [[nodiscard]] bool reassemble(const MessageHeader& header, Payload& body,
                                bool in_order);
  /// Hand the header to the ID queue of each destination on this machine,
  /// each with its own share of `claim`. A failed push counts the drop; a
  /// shed one was counted by the queue.
  void fan_out_local(const MessageHeader& header, const StoreClaim& claim);
  /// Count a drop (total + per-reason) and emit a rate-limited warning (one
  /// line per warning interval, not one per dropped message).
  void note_drop(DropReason reason);

  const std::uint16_t machine_;
  const Options options_;
  /// Set only when Options::metrics is null.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry& metrics_;
  TraceCollector* trace_;
  Instruments inst_;
  std::array<Counter*, static_cast<std::size_t>(DropReason::kCount)>
      drop_by_reason_{};
  /// Declared before every queue that holds claims on its bodies.
  ObjectStore store_;

  mutable std::mutex mu_;
  std::unordered_map<NodeId, std::shared_ptr<IdQueue>> endpoints_;
  std::unordered_map<std::uint16_t, RemoteSink> remote_sinks_;
  std::int64_t last_drop_warn_ns_ = 0;
  std::uint64_t dropped_at_last_warn_ = 0;
  bool warned_once_ = false;

  /// Remote bodies by msg_id; deliver_frame runs on every incoming pipe.
  mutable std::mutex partial_mu_;
  std::unordered_map<std::uint64_t, PartialBody> partial_;
  std::uint64_t partial_clock_ = 0;
  /// Router thread only: multi-chunk messages whose first chunk it routed.
  std::unordered_set<std::uint64_t> streaming_;

  /// Headers submitted on this machine, waiting for the router thread.
  ClassedQueue<Submitted> router_queue_;
  std::thread router_;  ///< declared last: it uses every member above
};

}  // namespace xt
