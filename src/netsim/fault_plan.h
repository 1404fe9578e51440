#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "common/rng.h"
#include "serial/wire_format.h"

namespace xt {

/// Declarative chaos schedule for one simulated link direction. All faults
/// are driven by a seeded PRNG, so a chaos run is reproducible: the same
/// plan applied to the same frame sequence injects the same faults (see the
/// seeded-determinism test in tests/test_chaos.cpp). Blackout windows are
/// the one wall-clock-dependent fault: they key off elapsed link time, not
/// the frame index.
struct FaultPlan {
  std::uint64_t seed = 1;

  /// Per-frame probability that the frame vanishes on the wire.
  double drop_probability = 0.0;
  /// Per-frame probability that one body byte is flipped in transit.
  double corrupt_probability = 0.0;
  /// Per-frame probability of an extra latency spike of `delay_ns`.
  double delay_probability = 0.0;
  std::int64_t delay_ns = 0;

  /// Scheduled link outages: every frame inside a blackout window is
  /// dropped. The first window opens `blackout_start_s` after the link
  /// comes up and lasts `blackout_duration_s`; with `blackout_every_s > 0`
  /// the window repeats with that period. `blackout_duration_s == 0`
  /// disables blackouts.
  double blackout_start_s = 0.0;
  double blackout_duration_s = 0.0;
  double blackout_every_s = 0.0;

  [[nodiscard]] bool enabled() const {
    return drop_probability > 0.0 || corrupt_probability > 0.0 ||
           delay_probability > 0.0 || blackout_duration_s > 0.0;
  }

  /// True when elapsed link time `t_s` falls inside a blackout window.
  [[nodiscard]] bool blackout_at(double t_s) const;
};

/// What the injector decided for one frame. `drop` subsumes `blackout`
/// (a blacked-out frame is a dropped frame); `corrupt` carries the byte
/// position basis and XOR mask so the corruption itself is deterministic.
struct FaultOutcome {
  bool drop = false;
  bool blackout = false;
  bool corrupt = false;
  std::int64_t extra_latency_ns = 0;
  std::uint64_t corrupt_offset = 0;  ///< byte index modulo the body size
  std::uint8_t corrupt_mask = 0;     ///< XORed into that byte (never 0)
};

/// Seeded per-link fault source. Not thread-safe: each PacedPipe owns one
/// and consults it exclusively from its transmit thread.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Decide the fate of the next frame; `elapsed_s` is time since the link
  /// came up (used only for blackout windows).
  [[nodiscard]] FaultOutcome next_frame(double elapsed_s);

  /// Plain tallies for tests and diagnostics (metrics are the pipe's job).
  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  [[nodiscard]] std::uint64_t corruptions() const { return corruptions_; }
  [[nodiscard]] std::uint64_t delays() const { return delays_; }
  [[nodiscard]] std::uint64_t blackouts() const { return blackouts_; }
  [[nodiscard]] std::uint64_t total_injected() const {
    return drops_ + corruptions_ + delays_ + blackouts_;
  }

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  const FaultPlan plan_;
  Rng rng_;
  std::uint64_t drops_ = 0;
  std::uint64_t corruptions_ = 0;
  std::uint64_t delays_ = 0;
  std::uint64_t blackouts_ = 0;
};

/// Apply a corrupt outcome to a wire frame: the flipped byte lands at
/// corrupt_offset modulo the frame's wire size, counted across the control
/// segment then the body segment. Only the hit segment is copied (control in
/// place on the returned frame, or the body segment's range replaced by a
/// flipped copy of just that range, never the whole shared body). The
/// frame's stamped CRC is left untouched, so a decode on the far side fails
/// — which is the point. No-op for non-corrupt outcomes / empty frames.
[[nodiscard]] WireFrame apply_corruption(WireFrame frame,
                                         const FaultOutcome& outcome);

}  // namespace xt
