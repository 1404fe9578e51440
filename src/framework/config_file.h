#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algo/factory.h"
#include "framework/deployment.h"

namespace xt {

/// XingTian is launched from a configuration file naming the machines, the
/// learner placement, the explorer counts and the algorithm hyperparameters
/// (paper Section 3.2.2 / 4.2). This is the C++ analogue: a small
/// `key = value` format with `[section]` headers and `#` comments. Every key,
/// its bounds and its meaning are listed in README.md, "Configuration
/// reference"; a test checks that list against the parser's key table.
struct LaunchConfig {
  AlgoSetup setup;
  DeploymentConfig deployment;
};

/// Parse a configuration from file contents. On failure returns nullopt and
/// (if non-null) fills `error` with a line-tagged message. Unknown keys are
/// errors: a typo in a config should never silently run the default.
[[nodiscard]] std::optional<LaunchConfig> parse_launch_config(
    const std::string& contents, std::string* error = nullptr);

/// Read and parse a configuration file from disk.
[[nodiscard]] std::optional<LaunchConfig> load_launch_config(
    const std::string& path, std::string* error = nullptr);

/// Every `[section] key` the parser accepts, as (section, key) pairs.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> launch_config_keys();

}  // namespace xt
