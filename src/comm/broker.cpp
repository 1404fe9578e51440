#include "comm/broker.h"

#include <algorithm>
#include <optional>
#include <set>

#include "common/clock.h"
#include "common/log.h"
#include "common/thread_util.h"
#include "obs/catalog.h"
#include "serial/wire_format.h"

namespace xt {
namespace {

/// Warn about drops at most this often (satellite: no per-message spam).
constexpr std::int64_t kDropWarnIntervalNs = 5'000'000'000;  // 5 s

}  // namespace

const char* drop_reason_name(DropReason reason) {
  switch (reason) {
    case DropReason::kUnknownDest: return "unknown_dest";
    case DropReason::kClosedDest: return "closed_dest";
    case DropReason::kCrcFail: return "crc_fail";
    case DropReason::kNoSink: return "no_sink";
    case DropReason::kNoLocalDest: return "no_local_dest";
    case DropReason::kIncompleteBody: return "incomplete_body";
    case DropReason::kCount: break;
  }
  return "unknown";
}

Broker::Broker(std::uint16_t machine) : Broker(machine, Options{}) {}

Broker::Broker(std::uint16_t machine, Options options)
    : machine_(machine),
      options_(std::move(options)),
      owned_metrics_(options_.metrics != nullptr
                         ? nullptr
                         : std::make_unique<MetricsRegistry>()),
      metrics_(options_.metrics != nullptr ? *options_.metrics : *owned_metrics_),
      trace_(options_.trace),
      inst_{metrics_.counter(metric::xt_broker_routed_total, {machine}),
            metrics_.counter(metric::xt_broker_forwarded_total, {machine}),
            metrics_.counter(metric::xt_broker_rehosted_total, {machine}),
            metrics_.counter(metric::xt_broker_dropped_total, {machine}),
            stage_histogram(metrics_, StageId::kRoute, {machine}),
            stage_histogram(metrics_, StageId::kQueueWait, {machine}),
            metrics_.counter(metric::xt_frames_corrupted_total, {machine}),
            // Only experience is ever shed by the queue policy (control is
            // never dropped, weights are backpressured): the class is fixed.
            metrics_.counter(metric::xt_messages_shed_total,
                             {machine, "experience", "router_overflow"}),
            metrics_.counter(metric::xt_messages_shed_total,
                             {machine, "experience", "inbox_overflow"})},
      store_(metrics_, machine),
      // Only a message's first chunk header may be shed; the rest are
      // committed. A shed header's claim goes with it.
      router_queue_(options_.overload,
                    [this](TrafficClass /*cls*/, Submitted&& /*shed*/) {
                      inst_.shed_router.inc();
                    },
                    [](const Submitted& item) {
                      return item.header.chunk_index != 0;
                    }) {
  for (std::size_t i = 0; i < drop_by_reason_.size(); ++i) {
    drop_by_reason_[i] =
        &metrics_.counter(metric::xt_broker_drops_by_reason_total,
                          {machine, drop_reason_name(static_cast<DropReason>(i))});
  }

  router_ = std::thread([this] {
    set_current_thread_name("router-m" + std::to_string(machine_));
    router_loop();
  });
}

Broker::~Broker() { stop(); }

void Broker::stop() {
  router_queue_.close();
  if (router_.joinable()) router_.join();
}

std::shared_ptr<IdQueue> Broker::register_endpoint(const NodeId& id) {
  // A shed RoutedHeader's claim goes with it.
  auto queue = std::make_shared<IdQueue>(
      options_.overload, [this](TrafficClass /*cls*/, RoutedHeader&& /*shed*/) {
        inst_.shed_inbox.inc();
      });
  std::scoped_lock lock(mu_);
  endpoints_[id] = queue;
  return queue;
}

void Broker::unregister_endpoint(const NodeId& id) {
  std::shared_ptr<IdQueue> queue;
  {
    std::scoped_lock lock(mu_);
    auto it = endpoints_.find(id);
    if (it == endpoints_.end()) return;
    queue = std::move(it->second);
    endpoints_.erase(it);
  }
  queue->close();
}

bool Broker::submit(MessageHeader header, StoreClaim claim) {
  const TrafficClass cls = header.tclass();
  // kShed counts as accepted: the overload policy worked as designed.
  if (router_queue_.push(cls, Submitted{std::move(header), std::move(claim)}) ==
      PushResult::kClosed) {
    return false;
  }
  return true;
}

void Broker::set_remote_sink(std::uint16_t machine, RemoteSink sink) {
  std::scoped_lock lock(mu_);
  remote_sinks_[machine] = std::move(sink);
}

void Broker::router_loop() {
  while (auto item = router_queue_.pop()) {
    route(std::move(item->header), std::move(item->claim));
  }
}

void Broker::note_drop(DropReason reason) {
  inst_.dropped.inc();
  drop_by_reason_[static_cast<std::size_t>(reason)]->inc();
  bool warn = false;
  std::uint64_t total = 0;
  std::uint64_t since = 0;
  {
    std::scoped_lock lock(mu_);
    total = inst_.dropped.value();
    const std::int64_t now = now_ns();
    if (!warned_once_ || now - last_drop_warn_ns_ >= kDropWarnIntervalNs) {
      warn = true;
      warned_once_ = true;
      since = total - dropped_at_last_warn_;
      last_drop_warn_ns_ = now;
      dropped_at_last_warn_ = total;
    }
  }
  if (warn) {
    XT_LOG_WARN << "broker m" << machine_ << ": dropping messages (" << since
                << " new, " << total
                << " total, latest: " << drop_reason_name(reason) << ")";
  }
}

void Broker::route(MessageHeader header, StoreClaim claim) {
  // Like its wire frame, only a message's last chunk is traced as its own.
  const bool last = header.last_chunk();
  const Stage stage(StageId::kRoute, &inst_.route_ms, trace_,
                    last ? header.trace_id() : 0, machine_, header.body_size);

  if (header.chunk_count() > 1) {
    // A message whose first chunk never reached the router was shed there:
    // skip its chunks, each one's claim with it.
    if (header.chunk_index == 0) {
      streaming_.insert(header.msg_id);
    } else if (!streaming_.contains(header.msg_id)) {
      return;
    }
    if (last) streaming_.erase(header.msg_id);
  }

  // Partition destinations: local endpoints get the header directly through
  // their ID queue; every distinct remote machine gets one forwarded copy of
  // (header, body) through its sink.
  std::set<std::uint16_t> remote_machines;
  for (const NodeId& dst : header.dsts) {
    if (dst.machine != machine_) remote_machines.insert(dst.machine);
  }

  if (last) fan_out_local(header, claim);

  // Every chunk reads the body in place through its claim; the last one
  // counts the message's forward or its drop.
  for (std::uint16_t machine : remote_machines) {
    RemoteSink sink;
    {
      std::scoped_lock lock(mu_);
      auto it = remote_sinks_.find(machine);
      if (it != remote_sinks_.end()) sink = it->second;
    }
    if (!sink) {
      if (last) note_drop(DropReason::kNoSink);
      continue;
    }
    if (last) inst_.forwarded.inc();
    sink(header, claim.peek());
  }
}

bool Broker::reassemble(const MessageHeader& header, Payload& body,
                        bool in_order) {
  bool complete = header.chunk_count() == 1;
  std::uint32_t lost = 0;
  {
    std::scoped_lock lock(partial_mu_);
    if (in_order && !partial_.empty()) {
      // An older body from this sender and class still missing chunks has
      // lost them: its chunks left before this message's.
      for (auto it = partial_.begin(); it != partial_.end();) {
        const PartialBody& older = it->second;
        if (it->first != header.msg_id && older.in_order && older.src == header.src &&
            older.tclass == header.tclass()) {
          if (!older.lost) ++lost;
          it = partial_.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (!complete) {
      auto [it, fresh] = partial_.try_emplace(header.msg_id);
      PartialBody& partial = it->second;
      if (fresh) {
        partial.src = header.src;
        partial.tclass = header.tclass();
        partial.in_order = in_order;
        partial.body = body;
      }
      if (in_order && header.chunk_index != partial.arrived && !partial.lost) {
        partial.lost = true;  // a gap: the chunks between were lost
        partial.body = nullptr;
        ++lost;
      }
      ++partial.arrived;
      partial.touched = ++partial_clock_;
      if (!partial.lost && partial.arrived == header.chunk_count()) {
        complete = true;
        body = std::move(partial.body);
        partial_.erase(it);
      } else if (in_order && header.last_chunk()) {
        if (!partial.lost) ++lost;
        partial_.erase(it);
      } else if (partial_.size() > kMaxPartialBodies) {
        auto stalest = partial_.begin();
        for (auto e = partial_.begin(); e != partial_.end(); ++e) {
          if (e->second.touched < stalest->second.touched) stalest = e;
        }
        if (!stalest->second.lost) ++lost;
        partial_.erase(stalest);
      }
    }
  }
  // The chunks share the sender's buffer; it must hold exactly the body.
  if (complete && body->size() != header.body_size) {
    complete = false;
    ++lost;
  }
  for (; lost > 0; --lost) note_drop(DropReason::kIncompleteBody);
  return complete;
}

std::size_t Broker::partial_bodies() const {
  std::scoped_lock lock(partial_mu_);
  return partial_.size();
}

bool Broker::deliver_frame(const WireFrame& frame, bool retransmits) {
  std::optional<Message> message = decode_wire_frame(frame);
  if (!message.has_value()) {
    inst_.corrupted.inc();
    if (!retransmits) note_drop(DropReason::kCrcFail);
    return false;
  }
  MessageHeader& header = message->header;
  Payload& body = message->body;
  if (!reassemble(header, body, /*in_order=*/!retransmits)) return true;
  const Stage stage(StageId::kRehost, nullptr, trace_, header.trace_id(), machine_,
                    body->size());
  // The forwarding router already split the message per machine, so remote
  // dsts in the header are not ours.
  if (std::none_of(header.dsts.begin(), header.dsts.end(),
                   [this](const NodeId& dst) { return dst.machine == machine_; })) {
    note_drop(DropReason::kNoLocalDest);
    return true;
  }
  inst_.rehosted.inc();
  fan_out_local(header, store_.hold(std::move(body)));
  return true;
}

void Broker::fan_out_local(const MessageHeader& header, const StoreClaim& claim) {
  const std::int64_t routed_ns = now_ns();
  for (const NodeId& dst : header.dsts) {
    if (dst.machine != machine_) continue;
    std::shared_ptr<IdQueue> queue;
    {
      std::scoped_lock lock(mu_);
      auto it = endpoints_.find(dst);
      if (it != endpoints_.end()) queue = it->second;
    }
    if (!queue) {
      note_drop(DropReason::kUnknownDest);
      continue;
    }
    switch (queue->push(header.tclass(),
                        RoutedHeader{header, routed_ns, claim.share()})) {
      case PushResult::kEnqueued:
        inst_.routed.inc();
        break;
      case PushResult::kShed:
        // The inbox shed callback counted the shed; not a drop (the overload
        // policy worked as designed).
        break;
      case PushResult::kClosed:
        note_drop(DropReason::kClosedDest);
        break;
    }
  }
}

std::uint64_t Broker::dropped_messages() const { return inst_.dropped.value(); }

std::uint64_t Broker::dropped_messages(DropReason reason) const {
  return drop_by_reason_[static_cast<std::size_t>(reason)]->value();
}

std::uint64_t Broker::corrupted_frames() const {
  return static_cast<std::uint64_t>(inst_.corrupted.value());
}

std::uint64_t Broker::shed_messages() const {
  return inst_.shed_router.value() + inst_.shed_inbox.value();
}

std::vector<std::pair<std::string, std::size_t>> Broker::queue_depths() const {
  std::vector<std::pair<std::string, std::size_t>> out;
  out.emplace_back("router-m" + std::to_string(machine_), router_queue_.size());
  std::scoped_lock lock(mu_);
  out.reserve(out.size() + endpoints_.size());
  for (const auto& [id, queue] : endpoints_) {
    out.emplace_back("inbox-" + id.name(), queue->size());
  }
  return out;
}

}  // namespace xt
