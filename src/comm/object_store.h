#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "common/bytes.h"
#include "obs/metrics.h"

namespace xt {

/// Optional telemetry hooks for an ObjectStore. All pointers may be null;
/// the owning Broker binds them before any endpoint can touch the store.
struct StoreInstruments {
  Counter* puts = nullptr;        ///< bodies inserted
  Counter* put_bytes = nullptr;   ///< bytes inserted
  Counter* fetches = nullptr;     ///< per-destination fetches
  Gauge* live_bytes = nullptr;    ///< bytes currently resident
};

/// The shared-memory communicator's object store (paper Section 3.2.1).
///
/// Bodies are inserted once and fetched by each destination; fetching hands
/// back a shared_ptr to the *same* immutable bytes, which is the in-process
/// analogue of the zero-copy shared-memory object store the Python system
/// builds on Apache Arrow. Reference counting by destination count means a
/// broadcast keeps exactly one copy alive, and the entry disappears when the
/// last receiver has fetched it — no unbounded memory growth.
class ObjectStore {
 public:
  ObjectStore() = default;
  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// Install telemetry hooks. Must be called before the store is shared
  /// across threads (the owning Broker does this during construction).
  void bind_instruments(const StoreInstruments& instruments) {
    instruments_ = instruments;
  }

  /// Insert a body; `expected_fetches` is the number of destinations that
  /// will fetch it (>=1). Returns the object id to put in the header.
  [[nodiscard]] std::uint64_t put(Payload body, std::uint32_t expected_fetches);

  /// Fetch the body for one destination. Returns nullptr if the id is
  /// unknown (already fully consumed or never inserted).
  [[nodiscard]] Payload fetch(std::uint64_t object_id);

  /// The body without taking a claim: the router forwards a streaming
  /// body's earlier chunks this way and fetches only with its last one.
  /// Returns nullptr if the id is unknown.
  [[nodiscard]] Payload peek(std::uint64_t object_id) const;

  /// Drop one destination's claim without fetching (e.g. the destination
  /// endpoint has shut down). Keeps refcounts balanced.
  void release(std::uint64_t object_id);

  /// Diagnostics.
  [[nodiscard]] std::size_t live_objects() const;
  [[nodiscard]] std::size_t live_bytes() const;

 private:
  struct Entry {
    Payload body;
    std::uint32_t remaining;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Entry> objects_;
  std::uint64_t next_id_ = 1;
  std::size_t live_bytes_ = 0;
  StoreInstruments instruments_;
};

}  // namespace xt
