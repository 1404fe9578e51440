#pragma once

#include <optional>
#include <string>
#include <vector>

#include "measure.h"

namespace xt::e2e {

/// The artifact `--json` writes: per workload, every run and a per-metric
/// summary. One run summarizes to itself.
[[nodiscard]] std::string artifact_json(const std::vector<RunResult>& runs,
                                        double seconds);

/// Reads the runs back from an artifact; nullopt (with `error` filled) when
/// the file is missing or malformed.
[[nodiscard]] std::optional<std::vector<RunResult>> read_artifact(
    const std::string& path, std::string* error);

/// The result line: {"correct", "attempted", "failed", "metrics"} with the
/// BENCHMARK.json metrics of one section, every digit kept.
[[nodiscard]] std::string contract_line(const RunResult& run, Section section);

/// Checks every end-to-end metric of every workload of `baseline_path`
/// against `current_path`, with the direction and bound BENCHMARK.json
/// (`bounds_path`) gives it; also fails on a rise in the failed share, an
/// incorrect run or a missing metric. Prints one line per comparison and
/// returns the number of regressions, or -1 when a file cannot be read.
int compare_artifacts(const std::string& baseline_path, const std::string& current_path,
                      const std::string& bounds_path);

[[nodiscard]] bool write_file(const std::string& path, const std::string& text);
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

}  // namespace xt::e2e
