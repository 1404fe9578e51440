#include "obs/exporters.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <set>
#include <utility>

#include "common/log.h"
#include "obs/catalog.h"

namespace xt {

void append_json_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

namespace {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// Escape a label value per the Prometheus exposition format: backslash,
/// double quote and newline must be written as \\, \" and \n.
void append_label_value_escaped(std::string& out, const std::string& value) {
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

/// A series' label block, `{key="value",...,extra}`, with its values escaped;
/// empty for a series without labels and without `extra`.
std::string label_block(const MetricsRegistry::Series& series,
                        const std::string& extra = "") {
  std::string out;
  for (std::size_t i = 0; i < series.values.size(); ++i) {
    out += i == 0 ? "{" : ",";
    out += series.row->labels.begin()[i];
    out += "=\"";
    append_label_value_escaped(out, series.values[i]);
    out += '"';
  }
  if (!extra.empty()) out += (out.empty() ? "{" : ",") + extra;
  if (!out.empty()) out += '}';
  return out;
}

}  // namespace

void write_chrome_trace(const TraceCollector& collector, std::ostream& os) {
  const std::vector<TraceSpan> spans = collector.snapshot();
  const auto thread_names = collector.thread_names();

  std::string out;
  out.reserve(spans.size() * 160 + 4096);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";

  bool first = true;
  auto emit = [&](const std::string& event) {
    if (!first) out += ",";
    first = false;
    out += "\n";
    out += event;
  };

  // Metadata: one "process" per simulated machine, named tracks per thread.
  std::set<std::uint32_t> pids;
  std::set<std::pair<std::uint32_t, std::uint64_t>> pid_tids;
  for (const TraceSpan& span : spans) {
    pids.insert(span.pid);
    pid_tids.insert({span.pid, span.tid});
  }
  for (std::uint32_t pid : pids) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%u,"
                  "\"tid\":0,\"args\":{\"name\":\"machine-%u\"}}",
                  pid, pid);
    emit(buf);
  }
  for (const auto& [pid, tid] : pid_tids) {
    std::string name = "thread-" + std::to_string(tid);
    for (const auto& [known_tid, known_name] : thread_names) {
      if (known_tid == tid) {
        name = known_name;
        break;
      }
    }
    std::string event = "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" +
                        std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
                        ",\"args\":{\"name\":\"";
    append_json_escaped(event, name);
    event += "\"}}";
    emit(event);
  }

  for (const TraceSpan& span : spans) {
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\",\"pid\":%u,"
        "\"tid\":%" PRIu64 ",\"ts\":%.3f,\"dur\":%.3f,"
        "\"args\":{\"trace_id\":%" PRIu64 ",\"bytes\":%" PRIu64 "}}",
        span.name, span.category, span.pid, span.tid,
        static_cast<double>(span.start_ns) / 1e3,
        static_cast<double>(span.dur_ns) / 1e3, span.trace_id, span.bytes);
    emit(buf);
  }

  out += "\n]}\n";
  os << out;
}

bool write_chrome_trace_file(const TraceCollector& collector,
                             const std::string& path) {
  std::ofstream file(path);
  if (!file) return false;
  write_chrome_trace(collector, file);
  return static_cast<bool>(file);
}

std::string prometheus_text(const MetricsRegistry& registry) {
  const std::vector<const MetricsRegistry::Series*> series = registry.series();
  std::string out;
  // Counters, then gauges, then histograms; each family under one TYPE line.
  for (const MetricKind kind :
       {MetricKind::kCounter, MetricKind::kGauge, MetricKind::kHistogram}) {
    const MetricRow* last_row = nullptr;
    for (const MetricsRegistry::Series* s : series) {
      const MetricRow& row = *s->row;
      if (row.kind != kind) continue;
      const std::string family = row.name;
      if (&row != last_row) {
        out += "# TYPE " + family + " " + metric_kind_name(kind) + "\n";
      }
      last_row = &row;
      const std::string labels = label_block(*s);
      if (s->counter) {
        out += family + labels + " " + std::to_string(s->counter->value()) + "\n";
      } else if (s->gauge) {
        out += family + labels + " " + format_double(s->gauge->value()) + "\n";
      } else {
        const Histogram& histogram = *s->histogram;
        const std::vector<std::uint64_t> counts = histogram.bucket_counts();
        const auto& bounds = Histogram::bounds();
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i <= bounds.size(); ++i) {
          cumulative += counts[i];
          const std::string le =
              i < bounds.size() ? format_double(bounds[i]) : std::string("+Inf");
          out += family + "_bucket" + label_block(*s, "le=\"" + le + "\"") + " " +
                 std::to_string(cumulative) + "\n";
        }
        out += family + "_sum" + labels + " " + format_double(histogram.sum()) + "\n";
        out += family + "_count" + labels + " " + std::to_string(histogram.count()) +
               "\n";
      }
    }
  }

  // Process-wide logging health: emitted warn/error lines (see common/log.h).
  const MetricRow& warnings = metric::xt_log_warnings_total;
  out += std::string("# TYPE ") + warnings.name + " " +
         metric_kind_name(warnings.kind) + "\n";
  out += std::string(warnings.name) + " " + std::to_string(log_warning_count()) + "\n";
  return out;
}

std::string profile_json(
    const CriticalPathReport& critical_path,
    const std::vector<ThreadProfile>& threads,
    const std::vector<std::pair<std::string, double>>& queue_depths,
    double wall_seconds, double sampling_hz) {
  std::string out;
  out.reserve(4096);
  out += "{\"wall_seconds\":" + format_double(wall_seconds);
  out += ",\"sampling_hz\":" + format_double(sampling_hz);
  out += ",\"critical_path\":" + critical_path_json(critical_path);
  out += ",\"threads\":[";
  for (std::size_t i = 0; i < threads.size(); ++i) {
    const ThreadProfile& thread = threads[i];
    if (i > 0) out += ",";
    out += "{\"name\":\"";
    append_json_escaped(out, thread.name);
    out += "\",\"samples\":" + std::to_string(thread.samples);
    out += ",\"busy_pct\":" + format_double(thread.busy_pct);
    out += ",\"scopes\":[";
    for (std::size_t j = 0; j < thread.scopes.size(); ++j) {
      const ScopeProfile& scope = thread.scopes[j];
      if (j > 0) out += ",";
      out += "{\"label\":\"";
      append_json_escaped(out, scope.label);
      out += "\",\"samples\":" + std::to_string(scope.samples);
      out += ",\"self_ms\":" + format_double(scope.self_ms);
      out += ",\"idle\":";
      out += scope.idle ? "true" : "false";
      out += "}";
    }
    out += "]}";
  }
  out += "],\"queues\":[";
  for (std::size_t i = 0; i < queue_depths.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"queue\":\"";
    append_json_escaped(out, queue_depths[i].first);
    out += "\",\"depth\":" + format_double(queue_depths[i].second) + "}";
  }
  out += "]}\n";
  return out;
}

bool write_profile_json_file(
    const std::string& path, const CriticalPathReport& critical_path,
    const std::vector<ThreadProfile>& threads,
    const std::vector<std::pair<std::string, double>>& queue_depths,
    double wall_seconds, double sampling_hz) {
  std::ofstream file(path);
  if (!file) return false;
  file << profile_json(critical_path, threads, queue_depths, wall_seconds,
                       sampling_hz);
  return static_cast<bool>(file);
}

}  // namespace xt
