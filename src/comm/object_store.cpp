#include "comm/object_store.h"

#include <cassert>

#include "obs/catalog.h"

namespace xt {

StoreClaim& StoreClaim::operator=(StoreClaim&& other) noexcept {
  if (this != &other) {
    if (store_ != nullptr) store_->release(id_);
    store_ = std::exchange(other.store_, nullptr);
    id_ = other.id_;
  }
  return *this;
}

StoreClaim::~StoreClaim() {
  if (store_ != nullptr) store_->release(id_);
}

StoreClaim StoreClaim::share() const {
  if (store_ == nullptr) return {};
  store_->retain(id_);
  return {store_, id_};
}

Payload StoreClaim::fetch() {
  if (store_ == nullptr) return nullptr;
  return std::exchange(store_, nullptr)->fetch(id_);
}

Payload StoreClaim::peek() const {
  return store_ == nullptr ? nullptr : store_->peek(id_);
}

ObjectStore::ObjectStore()
    : owned_metrics_(std::make_unique<MetricsRegistry>()),
      inst_(register_series(*owned_metrics_, 0)) {}

ObjectStore::ObjectStore(MetricsRegistry& metrics, std::uint16_t machine)
    : inst_(register_series(metrics, machine)) {}

ObjectStore::Instruments ObjectStore::register_series(MetricsRegistry& metrics,
                                                      std::uint16_t machine) {
  return {metrics.counter(metric::xt_store_puts_total, {machine}),
          metrics.counter(metric::xt_store_put_bytes_total, {machine}),
          metrics.counter(metric::xt_store_fetches_total, {machine}),
          metrics.gauge(metric::xt_store_live_bytes, {machine})};
}

StoreClaim ObjectStore::hold(Payload body) { return {this, put(std::move(body), 1)}; }

std::uint64_t ObjectStore::put(Payload body, std::uint32_t claims) {
  assert(claims >= 1);
  const std::size_t size = body->size();
  std::uint64_t id;
  {
    std::scoped_lock lock(mu_);
    id = next_id_++;
    live_bytes_ += size;
    objects_.emplace(id, Entry{std::move(body), claims});
    inst_.live_bytes.set(static_cast<double>(live_bytes_));
  }
  inst_.puts.inc();
  inst_.put_bytes.inc(size);
  return id;
}

Payload ObjectStore::fetch(std::uint64_t object_id) {
  Payload body = release(object_id);
  if (body != nullptr) inst_.fetches.inc();
  return body;
}

Payload ObjectStore::peek(std::uint64_t object_id) const {
  std::scoped_lock lock(mu_);
  auto it = objects_.find(object_id);
  return it == objects_.end() ? nullptr : it->second.body;
}

void ObjectStore::retain(std::uint64_t object_id) {
  std::scoped_lock lock(mu_);
  auto it = objects_.find(object_id);
  assert(it != objects_.end());
  ++it->second.remaining;
}

Payload ObjectStore::release(std::uint64_t object_id) {
  std::scoped_lock lock(mu_);
  auto it = objects_.find(object_id);
  if (it == objects_.end()) return nullptr;
  Payload body = it->second.body;
  if (--it->second.remaining == 0) {
    live_bytes_ -= body->size();
    objects_.erase(it);
    inst_.live_bytes.set(static_cast<double>(live_bytes_));
  }
  return body;
}

std::size_t ObjectStore::live_objects() const {
  std::scoped_lock lock(mu_);
  return objects_.size();
}

std::size_t ObjectStore::live_bytes() const {
  std::scoped_lock lock(mu_);
  return live_bytes_;
}

}  // namespace xt
