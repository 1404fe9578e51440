#include "artifact.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "perf_diff.h"

namespace xt::e2e {
namespace {

using tools::JsonValue;

/// Every digit a double carries; non-finite values (never emitted by a
/// correct run) become null so the document stays valid JSON.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

const char* section_name(Section section) {
  return section == Section::kEndToEnd ? "end_to_end" : "per_layer";
}

/// Runs grouped by workload, in order of first appearance.
std::vector<std::vector<const RunResult*>> by_workload(
    const std::vector<RunResult>& runs) {
  std::vector<std::vector<const RunResult*>> groups;
  for (const RunResult& run : runs) {
    auto it = std::find_if(groups.begin(), groups.end(), [&run](const auto& group) {
      return group.front()->workload == run.workload;
    });
    if (it == groups.end()) {
      groups.push_back({&run});
    } else {
      it->push_back(&run);
    }
  }
  return groups;
}

std::vector<double> values_of(const std::vector<const RunResult*>& runs,
                              const std::string& name) {
  std::vector<double> values;
  for (const RunResult* run : runs) {
    if (const Metric* metric = run->find(name)) values.push_back(metric->value);
  }
  return values;
}

std::string run_json(const RunResult& run) {
  std::ostringstream out;
  out << "{\"seed\": " << run.seed
      << ", \"traced\": " << (run.traced ? "true" : "false")
      << ", \"correct\": " << (run.correct() ? "true" : "false")
      << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
      << ",\n       \"checks\": [";
  for (std::size_t i = 0; i < run.checks.size(); ++i) {
    const Check& check = run.checks[i];
    out << (i == 0 ? "" : ",") << "\n         {\"name\": " << quoted(check.name)
        << ", \"ok\": " << (check.ok ? "true" : "false")
        << ", \"detail\": " << quoted(check.detail) << "}";
  }
  out << "],\n       \"metrics\": {";
  for (std::size_t i = 0; i < run.metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << quoted(run.metrics[i].name) << ": "
        << number(run.metrics[i].value);
  }
  out << "}}";
  return out.str();
}

std::optional<JsonValue> read_json(const std::string& path, std::string* error) {
  const auto text = read_file(path);
  if (!text) {
    *error = "cannot read " + path;
    return std::nullopt;
  }
  std::string parse_error;
  auto doc = tools::parse_json(*text, &parse_error);
  if (!doc) *error = path + ": " + parse_error;
  return doc;
}

std::uint64_t as_count(const JsonValue* value) {
  return value != nullptr && value->kind == JsonValue::Kind::kNumber
             ? static_cast<std::uint64_t>(value->number)
             : 0;
}

double failed_share(const std::vector<const RunResult*>& runs) {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const RunResult* run : runs) {
    attempted += run->attempted;
    failed += run->failed;
  }
  return attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                       : 0.0;
}

}  // namespace

std::string artifact_json(const std::vector<RunResult>& runs, double seconds) {
  std::ostringstream out;
  out << "{\"bench\": \"xt_bench\", \"seconds\": " << number(seconds)
      << ",\n \"workloads\": [";
  const auto groups = by_workload(runs);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const auto& group = groups[g];
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    for (const RunResult* run : group) {
      attempted += run->attempted;
      failed += run->failed;
      correct = correct && run->correct();
    }
    out << (g == 0 ? "" : ",") << "\n  {\"name\": " << quoted(group.front()->workload)
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ",\n   \"metrics\": {";
    bool first = true;
    for (const MetricSpec& spec : metric_specs()) {
      const Summary s = summarize(values_of(group, spec.name));
      if (s.n == 0) continue;
      out << (first ? "" : ",") << "\n    " << quoted(spec.name)
          << ": {\"value\": " << number(s.median) << ", \"q1\": " << number(s.q1)
          << ", \"q3\": " << number(s.q3) << ", \"n\": " << s.n
          << ", \"unit\": " << quoted(spec.unit)
          << ", \"section\": " << quoted(section_name(spec.section)) << "}";
      first = false;
    }
    out << "},\n   \"runs\": [";
    for (std::size_t r = 0; r < group.size(); ++r) {
      out << (r == 0 ? "" : ",") << "\n      " << run_json(*group[r]);
    }
    out << "]}";
  }
  out << "]}\n";
  return out.str();
}

std::optional<std::vector<RunResult>> read_artifact(const std::string& path,
                                                    std::string* error) {
  const auto doc = read_json(path, error);
  if (!doc) return std::nullopt;
  const JsonValue* workloads = doc->find("workloads");
  if (workloads == nullptr || workloads->kind != JsonValue::Kind::kArray) {
    *error = path + ": no workloads array";
    return std::nullopt;
  }
  std::vector<RunResult> runs;
  for (const JsonValue& workload : workloads->items) {
    const JsonValue* name = workload.find("name");
    const JsonValue* run_list = workload.find("runs");
    if (name == nullptr || run_list == nullptr) {
      *error = path + ": workload without name or runs";
      return std::nullopt;
    }
    for (const JsonValue& item : run_list->items) {
      RunResult run;
      run.workload = name->string;
      run.seed = as_count(item.find("seed"));
      const JsonValue* traced = item.find("traced");
      run.traced = traced != nullptr && traced->boolean;
      run.attempted = as_count(item.find("attempted"));
      run.failed = as_count(item.find("failed"));
      if (const JsonValue* checks = item.find("checks")) {
        for (const JsonValue& check : checks->items) {
          const JsonValue* check_name = check.find("name");
          const JsonValue* ok = check.find("ok");
          const JsonValue* detail = check.find("detail");
          run.checks.push_back({check_name != nullptr ? check_name->string : "",
                                ok != nullptr && ok->boolean,
                                detail != nullptr ? detail->string : ""});
        }
      }
      if (const JsonValue* metrics = item.find("metrics")) {
        for (const auto& [key, value] : metrics->members) {
          if (value.kind == JsonValue::Kind::kNumber) {
            run.metrics.push_back({key, value.number});
          }
        }
      }
      runs.push_back(std::move(run));
    }
  }
  return runs;
}

std::string contract_line(const RunResult& run, Section section) {
  std::ostringstream out;
  out << "{\"correct\": " << (run.correct() ? "true" : "false")
      << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
      << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : metric_specs()) {
    if (!spec.contract || spec.section != section) continue;
    const Metric* metric = run.find(spec.name);
    if (metric == nullptr) continue;
    out << (first ? "" : ", ") << quoted(spec.name)
        << ": {\"value\": " << number(metric->value)
        << ", \"unit\": " << quoted(spec.unit) << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

int compare_artifacts(const std::string& baseline_path, const std::string& current_path,
                      const std::string& bounds_path) {
  std::string error;
  const auto bounds = read_json(bounds_path, &error);
  const auto baseline = bounds ? read_artifact(baseline_path, &error) : std::nullopt;
  const auto current = baseline ? read_artifact(current_path, &error) : std::nullopt;
  const JsonValue* gated = bounds ? bounds->find("end_to_end") : nullptr;
  if (!current || gated == nullptr) {
    std::fprintf(stderr, "compare: %s\n",
                 error.empty() ? "no end_to_end list in bounds" : error.c_str());
    return -1;
  }

  int regressions = 0;
  std::printf("%-16s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "baseline",
              "current", "worse_by", "bound", "verdict");
  const auto current_groups = by_workload(*current);
  for (const auto& base_group : by_workload(*baseline)) {
    const std::string& workload = base_group.front()->workload;
    const auto cur_it = std::find_if(
        current_groups.begin(), current_groups.end(),
        [&workload](const auto& group) { return group.front()->workload == workload; });
    if (cur_it == current_groups.end()) {
      std::printf("%-16s %-26s MISSING\n", workload.c_str(), "(workload)");
      ++regressions;
      continue;
    }
    const auto& cur_group = *cur_it;
    for (const JsonValue& metric : gated->items) {
      const JsonValue* name = metric.find("name");
      const JsonValue* better = metric.find("better");
      const JsonValue* bound = metric.find("bound");
      if (name == nullptr || better == nullptr || bound == nullptr) continue;
      const Summary base = summarize(values_of(base_group, name->string));
      const Summary cur = summarize(values_of(cur_group, name->string));
      if (base.n == 0 || cur.n == 0) {
        std::printf("%-16s %-26s MISSING\n", workload.c_str(), name->string.c_str());
        ++regressions;
        continue;
      }
      const double change =
          base.median != 0.0 ? (cur.median - base.median) / std::abs(base.median) : 0.0;
      const double worse_by = better->string == "higher" ? -change : change;
      const bool regressed = worse_by > bound->number;
      regressions += regressed ? 1 : 0;
      std::printf("%-16s %-26s %14.6g %14.6g %8.2f%% %6.1f%%  %s\n", workload.c_str(),
                  name->string.c_str(), base.median, cur.median, worse_by * 100.0,
                  bound->number * 100.0, regressed ? "REGRESSION" : "ok");
    }
    const double base_failed = failed_share(base_group);
    const double cur_failed = failed_share(cur_group);
    const bool failed_rose = cur_failed > base_failed;
    const bool incorrect =
        std::any_of(cur_group.begin(), cur_group.end(),
                    [](const RunResult* run) { return !run->correct(); });
    regressions += (failed_rose ? 1 : 0) + (incorrect ? 1 : 0);
    std::printf("%-16s %-26s %14.6g %14.6g %9s %7s  %s\n", workload.c_str(),
                "failed_share", base_failed, cur_failed, "", "any",
                failed_rose ? "REGRESSION" : "ok");
    if (incorrect) {
      std::printf("%-16s a current run failed its checks\n", workload.c_str());
    }
  }
  std::printf("%d regression(s)\n", regressions);
  return regressions;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  return static_cast<bool>(out);
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace xt::e2e
