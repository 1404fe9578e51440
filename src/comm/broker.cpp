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
      // A shed header owned every store reference submit() took for it;
      // release them all so the refcount stays balanced.
      router_queue_(options_.overload,
                    [this](TrafficClass /*cls*/, MessageHeader&& header) {
                      const std::uint32_t refs = expected_fetches(header);
                      for (std::uint32_t i = 0; i < refs; ++i) {
                        store_.release(header.object_id);
                      }
                      shed_router_->inc();
                    }) {
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
  TraceScope route_span(trace_, "router.route", "comm", header.trace_id(),
                        machine_, header.body_size);

  // Partition destinations: local endpoints get the header directly through
  // their ID queue; every distinct remote machine gets one forwarded copy of
  // (header, body) through its sink.
  std::set<std::uint16_t> remote_machines;
  for (const NodeId& dst : header.dsts) {
    if (dst.machine != machine_) remote_machines.insert(dst.machine);
  }

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

  for (std::uint16_t machine : remote_machines) {
    RemoteSink sink;
    {
      std::scoped_lock lock(mu_);
      auto it = remote_sinks_.find(machine);
      if (it != remote_sinks_.end()) sink = it->second;
    }
    Payload body = store_.fetch(header.object_id);
    if (!sink || !body) {
      if (body == nullptr) {
        note_drop(DropReason::kMissingBody);
      } else {
        store_.release(header.object_id);
        note_drop(DropReason::kNoSink);
      }
      continue;
    }
    inst_.forwarded.inc();
    sink(header, std::move(body));
  }

  inst_.route_ms.observe(route_clock.elapsed_ms());
}

void Broker::deliver_remote(MessageHeader header, Payload body) {
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
