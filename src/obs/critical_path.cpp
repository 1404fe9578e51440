#include "obs/critical_path.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "obs/exporters.h"

namespace xt {
namespace {

struct Interval {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  const char* stage = "";
};

struct Lifecycle {
  std::vector<Interval> intervals;
  bool has_sender = false;
  bool has_recv = false;
};

/// The row's critical-path key, or the raw name of a span the table does not
/// know, so new instrumentation shows up without analyzer changes.
const char* path_key(const StageRow* row, const char* span_name) {
  return row != nullptr && row->path_key != nullptr ? row->path_key : span_name;
}

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

const char* stage_for_span(const char* span_name) {
  return path_key(find_stage(span_name), span_name);
}

CriticalPathReport analyze_critical_path(const std::vector<TraceSpan>& spans) {
  // Group comm spans by message. The snapshot may hold spans in any order
  // (threads interleave; the ring wraps), so ordering is reimposed per
  // lifecycle below.
  std::unordered_map<std::uint64_t, Lifecycle> by_message;
  for (const TraceSpan& span : spans) {
    if (span.trace_id == 0) continue;
    if (std::strcmp(span.category, "comm") != 0) continue;
    const StageRow* row = find_stage(span.name);
    Lifecycle& life = by_message[span.trace_id];
    life.intervals.push_back(Interval{span.start_ns, span.start_ns + span.dur_ns,
                                      path_key(row, span.name)});
    if (row != nullptr && row->sender) life.has_sender = true;
    if (row != nullptr && row->id == StageId::kRecv) life.has_recv = true;
  }

  CriticalPathReport report;
  struct StageAcc {
    std::int64_t total_ns = 0;
    std::uint64_t spans = 0;
  };
  std::unordered_map<std::string, StageAcc> acc;
  std::int64_t total_e2e_ns = 0;
  std::int64_t unattributed_ns = 0;

  std::vector<std::int64_t> bounds;
  for (auto& [id, life] : by_message) {
    if (!life.has_sender || !life.has_recv) {
      // Ring wrap dropped the head of the lifecycle, or the message was
      // still in flight when the snapshot was taken.
      ++report.incomplete;
      continue;
    }
    ++report.messages;
    for (const Interval& iv : life.intervals) ++acc[iv.stage].spans;

    bounds.clear();
    bounds.reserve(life.intervals.size() * 2);
    for (const Interval& iv : life.intervals) {
      bounds.push_back(iv.start_ns);
      bounds.push_back(iv.end_ns);
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    total_e2e_ns += bounds.back() - bounds.front();

    // Innermost-wins sweep: in each elementary slice the latest-starting
    // covering span is the most specific description of what the message
    // was doing; slices no span covers are gaps (router-queue dwell,
    // scheduling) and land in the explicit unattributed bucket.
    for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
      const std::int64_t a = bounds[i];
      const std::int64_t b = bounds[i + 1];
      const Interval* winner = nullptr;
      for (const Interval& iv : life.intervals) {
        if (iv.start_ns > a || iv.end_ns < b) continue;
        if (winner == nullptr || iv.start_ns > winner->start_ns ||
            (iv.start_ns == winner->start_ns && iv.end_ns < winner->end_ns)) {
          winner = &iv;
        }
      }
      if (winner != nullptr) {
        acc[winner->stage].total_ns += b - a;
      } else {
        unattributed_ns += b - a;
      }
    }
  }

  report.total_end_to_end_ms = static_cast<double>(total_e2e_ns) / 1e6;
  report.mean_end_to_end_ms =
      report.messages > 0
          ? report.total_end_to_end_ms / static_cast<double>(report.messages)
          : 0.0;

  for (const auto& [stage, tally] : acc) {
    StageBreakdown entry;
    entry.stage = stage;
    entry.total_ms = static_cast<double>(tally.total_ns) / 1e6;
    entry.spans = tally.spans;
    report.stages.push_back(std::move(entry));
  }
  if (unattributed_ns > 0) {
    StageBreakdown entry;
    entry.stage = "unattributed";
    entry.total_ms = static_cast<double>(unattributed_ns) / 1e6;
    report.stages.push_back(std::move(entry));
  }
  for (StageBreakdown& entry : report.stages) {
    if (report.messages > 0) {
      entry.mean_ms = entry.total_ms / static_cast<double>(report.messages);
    }
    if (report.total_end_to_end_ms > 0.0) {
      entry.share = entry.total_ms / report.total_end_to_end_ms;
    }
    if (entry.stage != "unattributed" &&
        entry.total_ms > report.dominant_share * report.total_end_to_end_ms) {
      report.dominant_stage = entry.stage;
      report.dominant_share = entry.share;
    }
  }
  std::sort(report.stages.begin(), report.stages.end(),
            [](const StageBreakdown& a, const StageBreakdown& b) {
              return a.total_ms > b.total_ms;
            });
  if (report.total_end_to_end_ms > 0.0) {
    report.attributed_fraction =
        1.0 - static_cast<double>(unattributed_ns) / 1e6 /
                  report.total_end_to_end_ms;
  }
  return report;
}

std::string critical_path_json(const CriticalPathReport& report) {
  std::string out;
  out += "{\"messages\":" + std::to_string(report.messages);
  out += ",\"incomplete\":" + std::to_string(report.incomplete);
  out += ",\"mean_end_to_end_ms\":" + format_number(report.mean_end_to_end_ms);
  out += ",\"total_end_to_end_ms\":" + format_number(report.total_end_to_end_ms);
  out += ",\"attributed_fraction\":" + format_number(report.attributed_fraction);
  out += ",\"dominant_stage\":\"";
  append_json_escaped(out, report.dominant_stage);
  out += "\",\"dominant_share\":" + format_number(report.dominant_share);
  out += ",\"stages\":[";
  for (std::size_t i = 0; i < report.stages.size(); ++i) {
    const StageBreakdown& stage = report.stages[i];
    if (i > 0) out += ",";
    out += "{\"stage\":\"";
    append_json_escaped(out, stage.stage);
    out += "\",\"total_ms\":" + format_number(stage.total_ms);
    out += ",\"mean_ms\":" + format_number(stage.mean_ms);
    out += ",\"share\":" + format_number(stage.share);
    out += ",\"spans\":" + std::to_string(stage.spans) + "}";
  }
  out += "]}";
  return out;
}

}  // namespace xt
