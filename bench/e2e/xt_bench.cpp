// xt_bench: one end-to-end benchmark of the XingTian runtime, run from
// outside it over four traffic workloads (README.md in this directory).
//
//   xt_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//   xt_bench --all | --repeat N [--workload NAME] ...
//   xt_bench --compare BASELINE.json CURRENT.json [--bounds BENCHMARK.json]
//   xt_bench --self-test [--bounds BENCHMARK.json]
//
// A single run prints every metric by name with its unit, writes its JSON
// artifact (and, traced, a Chrome trace of the benchmark's own spans) to
// --out-dir, ends with a one-line JSON result, and exits non-zero when a
// correctness check fails.

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "artifact.h"
#include "measure.h"
#include "perf_diff.h"

extern char** environ;

namespace {

using namespace xt::e2e;

/// BENCHMARK.json's run_seconds: the length of one measured run.
constexpr double kDefaultSeconds = 15.0;
/// Self-test runs: long enough for a few IMPALA rollouts after setup.
constexpr double kSelfTestSeconds = 1.2;

struct Options {
  std::string workload;
  bool all = false;
  int repeat = 1;
  std::uint64_t seed = 1;
  double seconds = kDefaultSeconds;
  bool traced = false;
  std::string json_path;
  std::string out_dir = "xt_bench_out";
  std::string bounds_path = "BENCHMARK.json";
  std::vector<std::string> compare;
  bool self_test = false;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: xt_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
      "                [--traced] [--json PATH] [--out-dir DIR]\n"
      "       xt_bench --all | --repeat N [--workload NAME] [...]\n"
      "       xt_bench --compare BASELINE.json CURRENT.json [--bounds PATH]\n"
      "       xt_bench --self-test [--bounds PATH] [--out-dir DIR]\n");
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      o.traced = std::string(argv[++i]) == "1";
    } else if (arg == "--traced") {
      o.traced = true;
    } else if (arg == "--json" && has_value) {
      o.json_path = argv[++i];
    } else if (arg == "--out-dir" && has_value) {
      o.out_dir = argv[++i];
    } else if (arg == "--bounds" && has_value) {
      o.bounds_path = argv[++i];
    } else if (arg == "--all") {
      o.all = true;
    } else if (arg == "--repeat" && has_value) {
      o.repeat = std::atoi(argv[++i]);
    } else if (arg == "--compare" && i + 2 < argc) {
      o.compare = {argv[i + 1], argv[i + 2]};
      i += 2;
    } else if (arg == "--self-test") {
      o.self_test = true;
    } else {
      std::fprintf(stderr, "xt_bench: bad argument '%s'\n", arg.c_str());
      return false;
    }
  }
  if (!(o.seconds > 0.0) || o.repeat < 1) {
    std::fprintf(stderr, "xt_bench: --seconds and --repeat must be positive\n");
    return false;
  }
  if (!o.workload.empty() && find_workload(o.workload) == nullptr) {
    std::fprintf(stderr, "xt_bench: unknown workload '%s'; the workloads are:",
                 o.workload.c_str());
    for (const Workload& workload : workloads()) {
      std::fprintf(stderr, " %s", workload.name);
    }
    std::fprintf(stderr, "\n");
    return false;
  }
  return true;
}

std::string run_stem(const std::string& workload, std::uint64_t seed, bool traced) {
  return workload + "-s" + std::to_string(seed) + (traced ? "-traced" : "");
}

void print_run(const RunResult& run) {
  std::printf("== %s seed %llu%s\n", run.workload.c_str(),
              static_cast<unsigned long long>(run.seed), run.traced ? " (traced)" : "");
  for (const Check& check : run.checks) {
    std::printf("  [%s] %-26s %s\n", check.ok ? "ok  " : "FAIL", check.name.c_str(),
                check.detail.c_str());
  }
  std::printf("  attempted %llu, failed %llu (measurement window)\n",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed));
  for (const Metric& metric : run.metrics) {
    const MetricSpec* spec = find_metric_spec(metric.name);
    std::printf("  %-40s %16.6g %s\n", metric.name.c_str(), metric.value,
                spec != nullptr ? spec->unit : "");
  }
}

/// One workload in this process: what run.sh invokes.
int run_single(const Options& o) {
  const Workload& workload = *find_workload(o.workload);
  SpanLog spans;
  const RunResult run = run_workload(workload, {o.seed, o.seconds, o.traced}, spans);
  print_run(run);

  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  const std::string stem = o.out_dir + "/" + run_stem(o.workload, o.seed, o.traced);
  const std::string json_path = o.json_path.empty() ? stem + ".json" : o.json_path;
  if (!write_file(json_path, artifact_json({run}, o.seconds))) {
    std::fprintf(stderr, "xt_bench: cannot write %s\n", json_path.c_str());
  }
  if (o.traced && !spans.write_chrome_trace(stem + ".trace.json")) {
    std::fprintf(stderr, "xt_bench: cannot write %s.trace.json\n", stem.c_str());
  }
  std::printf("%s\n", contract_line(run, o.traced ? Section::kPerLayer
                                                   : Section::kEndToEnd)
                          .c_str());
  return run.correct() ? 0 : 1;
}

std::string self_path(const char* argv0) {
  std::error_code ec;
  const auto path = std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? std::string(argv0) : path.string();
}

/// Runs xt_bench for one workload and seed in a child process (so peak RSS
/// is per run), its stdout to a log beside the artifact. Returns its runs;
/// empty when it wrote no artifact.
std::vector<RunResult> run_child(const std::string& exe, const Options& o,
                                 const std::string& workload, std::uint64_t seed,
                                 double seconds, bool traced) {
  const std::string json_path =
      o.out_dir + "/" + run_stem(workload, seed, traced) + ".json";
  const std::string log_path = json_path + ".log";
  std::vector<std::string> args = {exe,       "--workload", workload,
                                   "--seed",  std::to_string(seed),
                                   "--seconds", std::to_string(seconds),
                                   "--trace", traced ? "1" : "0",
                                   "--json",  json_path,
                                   "--out-dir", o.out_dir};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  std::remove(json_path.c_str());
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_t pid = 0;
  const int spawn_error =
      posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawn_error != 0) {
    std::fprintf(stderr, "xt_bench: cannot start %s\n", exe.c_str());
    return {};
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  std::string error;
  auto runs = read_artifact(json_path, &error);
  if (!runs) {
    std::fprintf(stderr, "xt_bench: %s run wrote no artifact (%s)\n", workload.c_str(),
                 error.c_str());
    return {};
  }
  return std::move(*runs);
}

/// --all / --repeat: every (workload, seed) in its own child process, then
/// one artifact with per-metric median and quartiles.
int run_children(const Options& o, const std::string& exe) {
  std::vector<std::string> names;
  if (!o.workload.empty()) {
    names.push_back(o.workload);
  } else {
    for (const Workload& workload : workloads()) names.emplace_back(workload.name);
  }
  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  std::vector<RunResult> runs;
  bool ok = true;
  for (const std::string& name : names) {
    for (int i = 0; i < o.repeat; ++i) {
      const std::uint64_t seed = o.seed + static_cast<std::uint64_t>(i);
      std::fprintf(stderr, "xt_bench: %s seed %llu\n", name.c_str(),
                   static_cast<unsigned long long>(seed));
      auto child = run_child(exe, o, name, seed, o.seconds, o.traced);
      ok = ok && !child.empty();
      for (RunResult& run : child) {
        ok = ok && run.correct();
        runs.push_back(std::move(run));
      }
    }
  }
  const std::string json_path =
      o.json_path.empty() ? o.out_dir + "/xt_bench.json" : o.json_path;
  if (!write_file(json_path, artifact_json(runs, o.seconds))) {
    std::fprintf(stderr, "xt_bench: cannot write %s\n", json_path.c_str());
    return 2;
  }
  std::printf("%-16s %-40s %14s %14s %14s %s\n", "workload", "metric", "median", "q1",
              "q3", "unit");
  for (const std::string& name : names) {
    for (const MetricSpec& spec : metric_specs()) {
      std::vector<double> values;
      for (const RunResult& run : runs) {
        if (run.workload != name) continue;
        if (const Metric* metric = run.find(spec.name)) values.push_back(metric->value);
      }
      if (values.empty()) continue;
      const Summary s = summarize(values);
      std::printf("%-16s %-40s %14.6g %14.6g %14.6g %s\n", name.c_str(), spec.name,
                  s.median, s.q1, s.q3, spec.unit);
    }
  }
  std::printf("wrote %s\n", json_path.c_str());
  return ok ? 0 : 1;
}

/// Every workload at a short length, traced: all checks pass; BENCHMARK.json
/// names exactly xt_bench's workloads; each run's result line, in both
/// sections, holds exactly the metrics BENCHMARK.json lists there, each with
/// its unit; and --compare accepts the artifact against itself but flags
/// every end-to-end metric of a copy made 2x worse.
int self_test(const Options& o, const std::string& exe) {
  using xt::tools::JsonValue;
  int failures = 0;
  const auto fail = [&failures](const std::string& what) {
    std::printf("SELF-TEST FAIL: %s\n", what.c_str());
    ++failures;
  };
  const auto bounds_text = read_file(o.bounds_path);
  const auto bounds = bounds_text ? xt::tools::parse_json(*bounds_text) : std::nullopt;
  const JsonValue* listed_workloads = bounds ? bounds->find("workloads") : nullptr;
  const JsonValue* end_to_end = bounds ? bounds->find("end_to_end") : nullptr;
  const JsonValue* per_layer = bounds ? bounds->find("per_layer") : nullptr;
  if (listed_workloads == nullptr || end_to_end == nullptr || per_layer == nullptr) {
    fail("cannot read workloads and metric lists from " + o.bounds_path);
    return 1;
  }
  for (const JsonValue& entry : listed_workloads->items) {
    const JsonValue* name = entry.find("name");
    if (name == nullptr || find_workload(name->string) == nullptr) {
      fail("BENCHMARK.json lists a workload xt_bench does not run");
    }
  }
  if (listed_workloads->items.size() != workloads().size()) {
    fail("BENCHMARK.json and xt_bench list different workloads");
  }

  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  std::vector<RunResult> runs;
  for (const Workload& workload : workloads()) {
    auto child = run_child(exe, o, workload.name, 1, kSelfTestSeconds, true);
    if (child.empty()) fail(std::string(workload.name) + ": no artifact");
    for (RunResult& run : child) {
      for (const Check& check : run.checks) {
        if (!check.ok) {
          fail(run.workload + ": check " + check.name + ": " + check.detail);
        }
      }
      runs.push_back(std::move(run));
    }
  }

  for (const auto& [list, section] : {std::pair{end_to_end, Section::kEndToEnd},
                                      std::pair{per_layer, Section::kPerLayer}}) {
    for (const RunResult& run : runs) {
      const auto line = xt::tools::parse_json(contract_line(run, section));
      const JsonValue* emitted = line ? line->find("metrics") : nullptr;
      if (emitted == nullptr || emitted->members.size() != list->items.size()) {
        fail(run.workload + ": result line does not hold exactly the listed metrics");
        continue;
      }
      for (const JsonValue& entry : list->items) {
        const JsonValue* name = entry.find("name");
        const JsonValue* unit = entry.find("unit");
        const JsonValue* metric = name ? emitted->find(name->string) : nullptr;
        const JsonValue* metric_unit = metric ? metric->find("unit") : nullptr;
        if (unit == nullptr || metric_unit == nullptr ||
            metric_unit->string != unit->string) {
          fail(run.workload + ": " + (name ? name->string : "unnamed metric") +
               " not emitted with its unit");
        }
      }
    }
  }

  std::vector<RunResult> degraded = runs;
  for (RunResult& run : degraded) {
    for (const JsonValue& entry : end_to_end->items) {
      const JsonValue* name = entry.find("name");
      const JsonValue* better = entry.find("better");
      if (name == nullptr || better == nullptr) continue;
      for (Metric& metric : run.metrics) {
        if (metric.name != name->string) continue;
        metric.value = better->string == "higher" ? metric.value / 2.0
                                                  : metric.value * 2.0;
      }
    }
  }
  const std::string base_path = o.out_dir + "/selftest.json";
  const std::string degraded_path = o.out_dir + "/selftest-degraded.json";
  const auto expected_flags =
      static_cast<int>(end_to_end->items.size() * workloads().size());
  if (!write_file(base_path, artifact_json(runs, kSelfTestSeconds)) ||
      !write_file(degraded_path, artifact_json(degraded, kSelfTestSeconds))) {
    fail("cannot write self-test artifacts");
  } else {
    if (compare_artifacts(base_path, base_path, o.bounds_path) != 0) {
      fail("--compare rejects an artifact against itself");
    }
    if (compare_artifacts(base_path, degraded_path, o.bounds_path) != expected_flags) {
      fail("--compare does not flag every metric of a 2x-degraded artifact");
    }
  }
  std::printf("self-test: %s (%zu run(s))\n", failures == 0 ? "PASS" : "FAIL",
              runs.size());
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_args(argc, argv, o)) {
    usage();
    return 2;
  }
  if (o.compare.size() == 2) {
    const int regressions =
        compare_artifacts(o.compare[0], o.compare[1], o.bounds_path);
    return regressions == 0 ? 0 : (regressions < 0 ? 2 : 1);
  }
  const std::string exe = self_path(argv[0]);
  if (o.self_test) return self_test(o, exe);
  if (o.all || o.repeat > 1) return run_children(o, exe);
  if (o.workload.empty()) {
    usage();
    return 2;
  }
  return run_single(o);
}
