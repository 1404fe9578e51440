#include "obs/exporters.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <utility>

#include "common/log.h"

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

/// Re-emit a raw `a="b",c="d"` label block with every value escaped. Metric
/// names embed label values verbatim (see MetricsRegistry's naming
/// convention), so a value holding a backslash, quote or newline would
/// otherwise corrupt the exposition output. A quote is treated as closing
/// its value when followed by `,` or the end of the block; anything else —
/// including embedded quotes — is value content.
std::string sanitize_labels(const std::string& labels) {
  std::string out;
  out.reserve(labels.size() + 8);
  std::size_t i = 0;
  while (i < labels.size()) {
    const std::size_t eq = labels.find('=', i);
    if (eq == std::string::npos) {
      out.append(labels, i, labels.size() - i);  // malformed: pass through
      break;
    }
    out.append(labels, i, eq - i + 1);
    i = eq + 1;
    if (i >= labels.size() || labels[i] != '"') continue;
    out += '"';
    ++i;
    std::string value;
    while (i < labels.size() &&
           !(labels[i] == '"' &&
             (i + 1 == labels.size() || labels[i + 1] == ','))) {
      value += labels[i++];
    }
    append_label_value_escaped(out, value);
    out += '"';
    if (i < labels.size()) ++i;  // closing quote
    if (i < labels.size() && labels[i] == ',') {
      out += ',';
      ++i;
    }
  }
  return out;
}

/// Split `xt_name_total{a="b"}` into ("xt_name_total", "a=\"b\"") with the
/// label values escaped for exposition output.
std::pair<std::string, std::string> split_labels(const std::string& name) {
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') return {name, ""};
  return {name.substr(0, brace),
          sanitize_labels(name.substr(brace + 1, name.size() - brace - 2))};
}

std::string with_label(const std::string& labels, const std::string& extra) {
  if (labels.empty()) return "{" + extra + "}";
  return "{" + labels + "," + extra + "}";
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

void write_prometheus_text(const MetricsRegistry& registry, std::ostream& os) {
  std::string out;
  std::string last_family;

  auto type_line = [&](const std::string& family, const char* type) {
    if (family == last_family) return;
    last_family = family;
    out += "# TYPE " + family + " " + type + "\n";
  };

  for (const auto& [name, value] : registry.counters()) {
    const auto [family, labels] = split_labels(name);
    type_line(family, "counter");
    out += family + (labels.empty() ? "" : "{" + labels + "}") + " " +
           std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : registry.gauges()) {
    const auto [family, labels] = split_labels(name);
    type_line(family, "gauge");
    out += family + (labels.empty() ? "" : "{" + labels + "}") + " " +
           format_double(value) + "\n";
  }
  for (const auto& [name, histogram] : registry.histograms()) {
    const auto [family, labels] = split_labels(name);
    type_line(family, "histogram");
    const std::vector<std::uint64_t> counts = histogram->bucket_counts();
    const auto& bounds = Histogram::bounds();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cumulative += counts[i];
      out += family + "_bucket" +
             with_label(labels, "le=\"" + format_double(bounds[i]) + "\"") + " " +
             std::to_string(cumulative) + "\n";
    }
    cumulative += counts[bounds.size()];
    out += family + "_bucket" + with_label(labels, "le=\"+Inf\"") + " " +
           std::to_string(cumulative) + "\n";
    out += family + "_sum" + (labels.empty() ? "" : "{" + labels + "}") + " " +
           format_double(histogram->sum()) + "\n";
    out += family + "_count" + (labels.empty() ? "" : "{" + labels + "}") + " " +
           std::to_string(histogram->count()) + "\n";
  }

  // Process-wide logging health: emitted warn/error lines (see common/log.h).
  out += "# TYPE xt_log_warnings_total counter\n";
  out += "xt_log_warnings_total " + std::to_string(log_warning_count()) + "\n";

  os << out;
}

std::string prometheus_text(const MetricsRegistry& registry) {
  std::ostringstream os;
  write_prometheus_text(registry, os);
  return os.str();
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
