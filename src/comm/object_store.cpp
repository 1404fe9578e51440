#include "comm/object_store.h"

#include <cassert>

namespace xt {

std::uint64_t ObjectStore::put(Payload body, std::uint32_t expected_fetches) {
  assert(expected_fetches >= 1);
  const std::size_t size = body->size();
  std::uint64_t id;
  {
    std::scoped_lock lock(mu_);
    id = next_id_++;
    live_bytes_ += size;
    objects_.emplace(id, Entry{std::move(body), expected_fetches});
    if (instruments_.live_bytes != nullptr) {
      instruments_.live_bytes->set(static_cast<double>(live_bytes_));
    }
  }
  if (instruments_.puts != nullptr) instruments_.puts->inc();
  if (instruments_.put_bytes != nullptr) instruments_.put_bytes->inc(size);
  return id;
}

Payload ObjectStore::fetch(std::uint64_t object_id) {
  Payload body;
  {
    std::scoped_lock lock(mu_);
    auto it = objects_.find(object_id);
    if (it == objects_.end()) return nullptr;
    body = it->second.body;
    if (--it->second.remaining == 0) {
      live_bytes_ -= body->size();
      objects_.erase(it);
      if (instruments_.live_bytes != nullptr) {
        instruments_.live_bytes->set(static_cast<double>(live_bytes_));
      }
    }
  }
  if (instruments_.fetches != nullptr) instruments_.fetches->inc();
  return body;
}

Payload ObjectStore::peek(std::uint64_t object_id) const {
  std::scoped_lock lock(mu_);
  auto it = objects_.find(object_id);
  return it == objects_.end() ? nullptr : it->second.body;
}

void ObjectStore::release(std::uint64_t object_id) {
  std::scoped_lock lock(mu_);
  auto it = objects_.find(object_id);
  if (it == objects_.end()) return;
  if (--it->second.remaining == 0) {
    live_bytes_ -= it->second.body->size();
    objects_.erase(it);
    if (instruments_.live_bytes != nullptr) {
      instruments_.live_bytes->set(static_cast<double>(live_bytes_));
    }
  }
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
