#include "comm/broker.h"

#include <set>

#include "common/clock.h"
#include "common/log.h"
#include "common/thread_util.h"
#include "obs/profiler.h"

namespace xt {
namespace {

/// Warn about drops at most this often (satellite: no per-message spam).
constexpr std::int64_t kDropWarnIntervalNs = 5'000'000'000;  // 5 s

std::string machine_label(const char* base, std::uint16_t machine) {
  return std::string(base) + "{machine=\"" + std::to_string(machine) + "\"}";
}

std::string drop_label(std::uint16_t machine, DropReason reason) {
  return std::string("xt_broker_dropped_total{machine=\"") +
         std::to_string(machine) + "\",reason=\"" +
         drop_reason_name(reason) + "\"}";
}

/// Only a message's first chunk header may be shed; the rest are committed.
bool pinned_chunk(const MessageHeader& header) { return header.chunk_index != 0; }

std::string shed_label(std::uint16_t machine, const char* reason) {
  // Only experience is ever shed by the queue policy (control is never
  // dropped, weights are backpressured), so the class label is fixed.
  return std::string("xt_messages_shed_total{machine=\"") +
         std::to_string(machine) + "\",class=\"experience\",reason=\"" +
         reason + "\"}";
}

}  // namespace

const char* drop_reason_name(DropReason reason) {
  switch (reason) {
    case DropReason::kUnknownDest: return "unknown_dest";
    case DropReason::kClosedDest: return "closed_dest";
    case DropReason::kCrcFail: return "crc_fail";
    case DropReason::kNoSink: return "no_sink";
    case DropReason::kMissingBody: return "missing_body";
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
      inst_{metrics_.counter(machine_label("xt_broker_routed_total", machine)),
            metrics_.counter(machine_label("xt_broker_forwarded_total", machine)),
            metrics_.counter(machine_label("xt_broker_rehosted_total", machine)),
            metrics_.counter(machine_label("xt_broker_dropped_total", machine)),
            metrics_.gauge(machine_label("xt_broker_queue_depth", machine)),
            metrics_.histogram(machine_label("xt_broker_route_ms", machine)),
            metrics_.histogram(machine_label("xt_queue_wait_ms", machine)),
            metrics_.counter(
                machine_label("xt_frames_corrupted_total", machine))},
      // A one-chunk message's shed header owned every store reference
      // submit() took for it; a longer message keeps them until the router
      // skips its last chunk.
      router_queue_(options_.overload,
                    [this](TrafficClass /*cls*/, MessageHeader&& header) {
                      if (header.chunk_count == 1) release_refs(header);
                      shed_router_->inc();
                    },
                    pinned_chunk) {
  for (std::size_t i = 0; i < drop_by_reason_.size(); ++i) {
    drop_by_reason_[i] =
        &metrics_.counter(drop_label(machine, static_cast<DropReason>(i)));
  }
  codec_instruments_.compress_ms =
      &metrics_.histogram(machine_label("xt_codec_compress_ms", machine));
  codec_instruments_.decompress_ms =
      &metrics_.histogram(machine_label("xt_codec_decompress_ms", machine));
  codec_instruments_.bytes_in =
      &metrics_.counter(machine_label("xt_codec_bytes_in_total", machine));
  codec_instruments_.bytes_out =
      &metrics_.counter(machine_label("xt_codec_bytes_out_total", machine));
  codec_instruments_.messages_compressed =
      &metrics_.counter(machine_label("xt_codec_messages_compressed_total", machine));

  StoreInstruments store_instruments;
  store_instruments.puts =
      &metrics_.counter(machine_label("xt_store_puts_total", machine));
  store_instruments.put_bytes =
      &metrics_.counter(machine_label("xt_store_put_bytes_total", machine));
  store_instruments.fetches =
      &metrics_.counter(machine_label("xt_store_fetches_total", machine));
  store_instruments.live_bytes =
      &metrics_.gauge(machine_label("xt_store_live_bytes", machine));
  store_.bind_instruments(store_instruments);

  shed_router_ = &metrics_.counter(shed_label(machine, "router_overflow"));
  shed_inbox_ = &metrics_.counter(shed_label(machine, "inbox_overflow"));

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
  // Every RoutedHeader in an inbox owns exactly one store reference.
  auto queue = std::make_shared<IdQueue>(
      options_.overload, [this](TrafficClass /*cls*/, RoutedHeader&& routed) {
        store_.release(routed.header.object_id);
        shed_inbox_->inc();
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

bool Broker::submit(MessageHeader header) {
  const TrafficClass cls = header.tclass;
  // kShed counts as accepted: the shed callback already released the
  // header's store references, so the caller must not release them again.
  if (router_queue_.push(cls, std::move(header)) == PushResult::kClosed) {
    return false;
  }
  inst_.queue_depth.set(static_cast<double>(router_queue_.size()));
  return true;
}

std::uint32_t Broker::expected_fetches(const MessageHeader& header) const {
  std::uint32_t local = 0;
  std::set<std::uint16_t> remote_machines;
  for (const NodeId& dst : header.dsts) {
    if (dst.machine == machine_) {
      ++local;
    } else {
      remote_machines.insert(dst.machine);
    }
  }
  const auto total = local + static_cast<std::uint32_t>(remote_machines.size());
  return total == 0 ? 1 : total;
}

void Broker::release_refs(const MessageHeader& header) {
  const std::uint32_t refs = expected_fetches(header);
  for (std::uint32_t i = 0; i < refs; ++i) store_.release(header.object_id);
}

void Broker::set_remote_sink(std::uint16_t machine, RemoteSink sink) {
  std::scoped_lock lock(mu_);
  remote_sinks_[machine] = std::move(sink);
}

void Broker::router_loop() {
  while (auto header = router_queue_.pop()) {
    inst_.queue_depth.set(static_cast<double>(router_queue_.size()));
    route(std::move(*header));
  }
  inst_.queue_depth.set(0.0);
}

void Broker::note_drop(DropReason reason) {
  inst_.dropped.inc();
  drop_by_reason_[static_cast<std::size_t>(reason)]->inc();
  bool warn = false;
  std::uint64_t total = 0;
  std::uint64_t since = 0;
  {
    std::scoped_lock lock(mu_);
    ++dropped_;
    total = dropped_;
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

void Broker::route(MessageHeader header) {
  const Stopwatch route_clock;
  ProfScope prof("route");
  // Like its wire frame, only a message's last chunk is traced as its own.
  const bool last = header.last_chunk();
  const std::uint64_t trace_id = last ? header.trace_id() : 0;
  TraceScope route_span(trace_, "router.route", "comm", trace_id, machine_,
                        header.body_size);

  if (header.chunk_count > 1) {
    // A message whose first chunk never reached the router was shed there:
    // skip its chunks, and release its references with the last one.
    if (header.chunk_index == 0) {
      streaming_.insert(header.msg_id);
    } else if (!streaming_.contains(header.msg_id)) {
      if (last) release_refs(header);
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

  const std::int64_t routed_ns = now_ns();
  for (const NodeId& dst : header.dsts) {
    if (!last || dst.machine != machine_) continue;
    std::shared_ptr<IdQueue> queue;
    {
      std::scoped_lock lock(mu_);
      auto it = endpoints_.find(dst);
      if (it != endpoints_.end()) queue = it->second;
    }
    if (!queue) {
      store_.release(header.object_id);
      note_drop(DropReason::kUnknownDest);
    } else {
      push_inbox(*queue, header, routed_ns);
    }
  }

  for (std::uint16_t machine : remote_machines) {
    RemoteSink sink;
    {
      std::scoped_lock lock(mu_);
      auto it = remote_sinks_.find(machine);
      if (it != remote_sinks_.end()) sink = it->second;
    }
    // Earlier chunks read the body in place; the last takes the machine's
    // reference and accounts for a failed forward. An earlier chunk finds
    // no body only when its sender met a stopping broker and released the
    // references itself.
    Payload body =
        last ? store_.fetch(header.object_id) : store_.peek(header.object_id);
    if (!sink || !body) {
      if (!last) continue;
      if (body == nullptr) {
        note_drop(DropReason::kMissingBody);
      } else {
        store_.release(header.object_id);
        note_drop(DropReason::kNoSink);
      }
      continue;
    }
    if (last) inst_.forwarded.inc();
    sink(header, std::move(body));
  }

  inst_.route_ms.observe(route_clock.elapsed_ms());
}

bool Broker::reassemble(const MessageHeader& header, Payload& body) {
  const bool in_order = header.link_seq == 0;
  bool complete = header.chunk_count == 1;
  std::uint32_t lost = 0;
  {
    std::scoped_lock lock(partial_mu_);
    if (in_order && !partial_.empty()) {
      // An older body from this sender and class still missing chunks has
      // lost them: its chunks left before this message's.
      for (auto it = partial_.begin(); it != partial_.end();) {
        const PartialBody& older = it->second;
        if (it->first != header.msg_id && older.in_order && older.src == header.src &&
            older.tclass == header.tclass) {
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
        partial.tclass = header.tclass;
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
      if (!partial.lost && partial.arrived == header.chunk_count) {
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

void Broker::deliver_remote(MessageHeader header, Payload body) {
  if (!reassemble(header, body)) return;
  ProfScope prof("rehost");
  TraceScope rehost_span(trace_, "broker.rehost", "comm", header.trace_id(),
                         machine_, body->size());
  // Count destinations that live here; the forwarding router already split
  // the message per machine, so remote dsts in the header are not ours.
  std::uint32_t local = 0;
  for (const NodeId& dst : header.dsts) {
    if (dst.machine == machine_) ++local;
  }
  if (local == 0) {
    note_drop(DropReason::kNoLocalDest);
    return;
  }
  header.object_id = store_.put(std::move(body), local);
  inst_.rehosted.inc();

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
      store_.release(header.object_id);
      note_drop(DropReason::kUnknownDest);
    } else {
      push_inbox(*queue, header, routed_ns);
    }
  }
}

void Broker::push_inbox(IdQueue& queue, const MessageHeader& header,
                        std::int64_t routed_ns) {
  switch (queue.push(header.tclass, RoutedHeader{header, routed_ns})) {
    case PushResult::kEnqueued:
      inst_.routed.inc();
      break;
    case PushResult::kShed:
      // The inbox shed callback released the store reference and counted
      // the shed; not a drop (the overload policy worked as designed).
      break;
    case PushResult::kClosed:
      store_.release(header.object_id);
      note_drop(DropReason::kClosedDest);
      break;
  }
}

void Broker::reject_corrupt_frame() {
  inst_.corrupted.inc();
  note_drop(DropReason::kCrcFail);
}

std::uint64_t Broker::dropped_messages() const {
  std::scoped_lock lock(mu_);
  return dropped_;
}

std::uint64_t Broker::dropped_messages(DropReason reason) const {
  return static_cast<std::uint64_t>(
      drop_by_reason_[static_cast<std::size_t>(reason)]->value());
}

std::uint64_t Broker::corrupted_frames() const {
  return static_cast<std::uint64_t>(inst_.corrupted.value());
}

std::uint64_t Broker::shed_messages() const {
  return static_cast<std::uint64_t>(shed_router_->value()) +
         static_cast<std::uint64_t>(shed_inbox_->value());
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
