#include "netsim/fault_plan.h"

#include <cmath>

namespace xt {

bool FaultPlan::blackout_at(double t_s) const {
  if (blackout_duration_s <= 0.0) return false;
  if (t_s < blackout_start_s) return false;
  double rel = t_s - blackout_start_s;
  if (blackout_every_s > 0.0) rel = std::fmod(rel, blackout_every_s);
  return rel < blackout_duration_s;
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(plan), rng_(plan.seed) {}

FaultOutcome FaultInjector::next_frame(double elapsed_s) {
  FaultOutcome outcome;
  if (plan_.blackout_at(elapsed_s)) {
    outcome.drop = true;
    outcome.blackout = true;
    return outcome;
  }
  if (plan_.drop_probability > 0.0 && rng_.bernoulli(plan_.drop_probability)) {
    outcome.drop = true;
    return outcome;
  }
  if (plan_.corrupt_probability > 0.0 &&
      rng_.bernoulli(plan_.corrupt_probability)) {
    outcome.corrupt = true;
    outcome.corrupt_offset = rng_.next_u64();
    outcome.corrupt_mask =
        static_cast<std::uint8_t>(rng_.uniform_int(1, 255));
  }
  if (plan_.delay_probability > 0.0 && rng_.bernoulli(plan_.delay_probability)) {
    outcome.extra_latency_ns = plan_.delay_ns;
  }
  return outcome;
}

WireFrame apply_corruption(WireFrame frame, const FaultOutcome& outcome) {
  const std::size_t wire = frame.wire_size();
  if (!outcome.corrupt || wire == 0) return frame;
  const std::size_t offset = outcome.corrupt_offset % wire;
  if (offset < frame.control.size()) {
    frame.control[offset] ^= outcome.corrupt_mask;
    return frame;
  }
  const std::span<const std::uint8_t> segment = frame.segment();
  Bytes copy(segment.begin(), segment.end());
  copy[offset - frame.control.size()] ^= outcome.corrupt_mask;
  frame.body = make_payload(std::move(copy));
  frame.body_offset = 0;
  return frame;
}

}  // namespace xt
