#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace xt {

/// Append `s` to `out` as the body of a JSON string literal.
void append_json_escaped(std::string& out, const std::string& s);

/// Serialize the collector's spans as Chrome trace_event JSON ("X" complete
/// events plus process/thread name metadata). The output loads directly in
/// chrome://tracing and Perfetto: one process per simulated machine, one
/// track per named thread, spans carry trace_id/bytes args.
void write_chrome_trace(const TraceCollector& collector, std::ostream& os);

/// write_chrome_trace to a file; false if the file cannot be opened.
bool write_chrome_trace_file(const TraceCollector& collector,
                             const std::string& path);

/// The registry in the Prometheus text exposition format: counters, gauges,
/// then histograms (with `_bucket`/`_sum`/`_count` series), each family's
/// series in name order under its row's TYPE line, label values escaped,
/// then the logging layer's process-wide `xt_log_warnings_total`.
[[nodiscard]] std::string prometheus_text(const MetricsRegistry& registry);

/// The run's `profile.json` artifact: the critical-path breakdown, the
/// per-thread sampling profiles, and the final queue-depth snapshot, as one
/// JSON object tools can diff across runs.
[[nodiscard]] std::string profile_json(
    const CriticalPathReport& critical_path,
    const std::vector<ThreadProfile>& threads,
    const std::vector<std::pair<std::string, double>>& queue_depths,
    double wall_seconds, double sampling_hz);

/// profile_json to a file; false if the file cannot be opened.
bool write_profile_json_file(
    const std::string& path, const CriticalPathReport& critical_path,
    const std::vector<ThreadProfile>& threads,
    const std::vector<std::pair<std::string, double>>& queue_depths,
    double wall_seconds, double sampling_hz);

}  // namespace xt
