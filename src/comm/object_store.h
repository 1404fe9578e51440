#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/bytes.h"
#include "obs/metrics.h"

namespace xt {

class ObjectStore;

/// One holder's claim on a body in an ObjectStore. `fetch()` spends it for
/// the body; destroying an unspent claim releases it, so a header that
/// carries a claim gives its body back wherever it is dropped. Move-only; a
/// default-constructed or moved-from claim is empty and holds nothing. A
/// claim must not outlive its store: a `Broker` declares its store before
/// every queue that holds claims, and endpoints die before their broker.
class StoreClaim {
 public:
  StoreClaim() = default;
  StoreClaim(StoreClaim&& other) noexcept
      : store_(std::exchange(other.store_, nullptr)), id_(other.id_) {}
  StoreClaim& operator=(StoreClaim&& other) noexcept;
  ~StoreClaim();

  /// Another claim on the same body; empty if this one is.
  [[nodiscard]] StoreClaim share() const;
  /// Spend the claim for its body, leaving it empty; nullptr if empty.
  [[nodiscard]] Payload fetch();
  /// The body without spending the claim; nullptr if empty.
  [[nodiscard]] Payload peek() const;

 private:
  friend class ObjectStore;
  StoreClaim(ObjectStore* store, std::uint64_t id) : store_(store), id_(id) {}

  ObjectStore* store_ = nullptr;
  std::uint64_t id_ = 0;
};

/// The shared-memory communicator's object store (paper Section 3.2.1).
///
/// Bodies are inserted once and fetched by each destination; fetching hands
/// back a shared_ptr to the *same* immutable bytes, which is the in-process
/// analogue of the zero-copy shared-memory object store the Python system
/// builds on Apache Arrow. An entry lives while any claim on it is unspent,
/// so a broadcast keeps exactly one copy alive, and the entry disappears
/// with its last claim — no unbounded memory growth.
class ObjectStore {
 public:
  /// A store that records into a registry of its own, as machine 0.
  ObjectStore();
  /// Registers `xt_store_puts_total`, `xt_store_put_bytes_total`,
  /// `xt_store_fetches_total` and `xt_store_live_bytes` for `machine`.
  ObjectStore(MetricsRegistry& metrics, std::uint16_t machine);
  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// Insert a body with one claim on it.
  [[nodiscard]] StoreClaim hold(Payload body);

  /// Insert a body with `claims` (>= 1) claims, each spent by one fetch of
  /// the returned id.
  [[nodiscard]] std::uint64_t put(Payload body, std::uint32_t claims);

  /// Spend one claim on the body. Returns nullptr if the id is unknown
  /// (already fully consumed or never inserted).
  [[nodiscard]] Payload fetch(std::uint64_t object_id);

  /// Diagnostics.
  [[nodiscard]] std::size_t live_objects() const;
  [[nodiscard]] std::size_t live_bytes() const;

 private:
  friend class StoreClaim;

  struct Entry {
    Payload body;
    std::uint32_t remaining;
  };

  struct Instruments {
    Counter& puts;
    Counter& put_bytes;
    Counter& fetches;  ///< claims spent by a fetch
    Gauge& live_bytes;
  };
  static Instruments register_series(MetricsRegistry& metrics, std::uint16_t machine);

  [[nodiscard]] Payload peek(std::uint64_t object_id) const;
  void retain(std::uint64_t object_id);
  /// Drop one claim, and the entry with its last; returns the body, or
  /// nullptr if the id is unknown.
  Payload release(std::uint64_t object_id);

  std::unique_ptr<MetricsRegistry> owned_metrics_;  ///< default store only
  Instruments inst_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Entry> objects_;
  std::uint64_t next_id_ = 1;
  std::size_t live_bytes_ = 0;
};

}  // namespace xt
