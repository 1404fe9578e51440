#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace xt {

// ---------------------------------------------------------------------------
// Offline critical-path analysis over the TraceCollector ring: reconstruct
// each message's lifecycle from its comm-category spans (stitched by
// trace_id) and attribute the end-to-end latency to stages — the Fig-7-style
// breakdown that names which stage bounds a run.
//
// Attribution is a line sweep over each message's time window. At every
// instant the *innermost* covering span wins (the latest-starting one), so
// nested spans split naturally into self-time, overlapping receiver spans
// from a multi-destination broadcast are never double-counted, and the sum
// of all stage buckets plus the explicit "unattributed" bucket equals the
// end-to-end latency exactly.

/// One stage bucket of the breakdown.
struct StageBreakdown {
  std::string stage;      ///< canonical stage key (see stage_for_span)
  double total_ms = 0.0;  ///< attributed wall time across analyzed messages
  double mean_ms = 0.0;   ///< total_ms / analyzed messages
  double share = 0.0;     ///< total_ms / total end-to-end (0..1)
  std::uint64_t spans = 0;  ///< spans contributing to this stage
};

struct CriticalPathReport {
  std::uint64_t messages = 0;    ///< complete lifecycles analyzed
  std::uint64_t incomplete = 0;  ///< trace ids missing sender or receiver
                                 ///< spans (ring wrap, in-flight at snapshot)
  double total_end_to_end_ms = 0.0;  ///< sum over analyzed messages
  double mean_end_to_end_ms = 0.0;
  /// Fraction of total end-to-end covered by a named stage (the rest is the
  /// "unattributed" bucket: router-queue dwell before route(), inter-span
  /// gaps).
  double attributed_fraction = 0.0;
  std::string dominant_stage;  ///< largest named stage ("" when no messages)
  double dominant_share = 0.0;
  std::vector<StageBreakdown> stages;  ///< descending total_ms, includes
                                       ///< "unattributed" when non-zero
};

/// Canonical stage key for a comm span name: its stage row's `path_key`
/// ("msg.serialize" -> "serialize", see kStages in obs/trace.h). Unknown comm
/// spans keep their raw name so new instrumentation shows up without analyzer
/// changes.
[[nodiscard]] const char* stage_for_span(const char* span_name);

/// Analyze a span snapshot (TraceCollector::snapshot() order-independent;
/// spans may arrive shuffled). Only comm-category spans with trace_id != 0
/// participate; a lifecycle is complete when it has both a sender-side span
/// (a `sender` row: serialize, compress, store.put) and a recv span.
[[nodiscard]] CriticalPathReport analyze_critical_path(
    const std::vector<TraceSpan>& spans);

/// Render the report as a JSON object (stable key order).
[[nodiscard]] std::string critical_path_json(const CriticalPathReport& report);

}  // namespace xt
