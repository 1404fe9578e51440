#include "framework/config_file.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <sstream>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "envs/registry.h"

namespace xt {
namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

/// nullopt once a value is stored; otherwise the rest of its "bad <key>"
/// error message, which says what the key wants.
using Rejection = std::optional<std::string>;

/// Parses one value and stores it into the config.
using Store = std::function<Rejection(LaunchConfig&, const std::string& value)>;

/// One `[section] key` of the launch configuration.
struct Key {
  std::string_view section;
  std::string_view name;
  Store store;
};

/// `XT_FIELDS(c.a, c.b)` names the config fields one key writes. They share
/// one type, and the value is parsed into that type.
#define XT_FIELDS(...) [](LaunchConfig& c) { return std::tie(__VA_ARGS__); }

template <typename Fields>
using FieldRefs = std::invoke_result_t<Fields, LaunchConfig&>;

template <typename Fields>
using FieldType = std::remove_reference_t<std::tuple_element_t<0, FieldRefs<Fields>>>;

template <typename T, typename Fields>
void assign(LaunchConfig& config, const Fields& fields, const T& value) {
  std::apply(
      [&](auto&... field) {
        static_assert((std::is_same_v<decltype(field), T&> && ...),
                      "the fields of one key must share one type");
        ((field = value), ...);
      },
      fields(config));
}

constexpr auto kNoMax = std::numeric_limits<std::uint64_t>::max();

/// Parses all of `text` as a T. A sign is accepted only by a signed T, and
/// overflow of T is a failure.
template <typename T>
bool parse_integer(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && stop == end;
}

/// True if `x` converts to T without overflow; false for NaN and infinity.
template <typename T>
bool fits(double x) {
  if constexpr (std::is_integral_v<T>) {
    return x >= static_cast<double>(std::numeric_limits<T>::min()) &&
           x < std::ldexp(1.0, std::numeric_limits<T>::digits);
  } else {
    return std::fabs(x) <= std::numeric_limits<T>::max();
  }
}

/// An integer of the fields' own type within [lo, hi] that still fits that
/// type once multiplied by `scale`.
template <typename Fields>
Store integer(Fields fields, std::int64_t lo = 0, std::uint64_t hi = kNoMax,
              std::uint64_t scale = 1) {
  using T = FieldType<Fields>;
  hi = std::min<std::uint64_t>(hi, std::numeric_limits<T>::max() / scale);
  const std::string want =
      " (want " + std::to_string(lo) + ".." + std::to_string(hi) + ")";
  return [=](LaunchConfig& config, const std::string& value) -> Rejection {
    T parsed{};
    if (!parse_integer(value, &parsed) || std::cmp_less(parsed, lo) ||
        std::cmp_greater(parsed, hi)) {
      return want;
    }
    assign<T>(config, fields, static_cast<T>(parsed * static_cast<T>(scale)));
    return std::nullopt;
  };
}

/// Bounds on a real; an open end excludes its own value.
struct Interval {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;
};

std::string describe(const Interval& range) {
  const auto bound = [](const char* op, double value) {
    char text[32];
    std::snprintf(text, sizeof(text), "%s%g", op, value);
    return std::string(text);
  };
  std::string out;
  if (std::isfinite(range.lo)) out = bound(range.lo_open ? ">" : ">=", range.lo);
  if (std::isfinite(range.hi)) {
    out += (out.empty() ? "" : " and ") + bound(range.hi_open ? "<" : "<=", range.hi);
  }
  return out.empty() ? "a finite number" : out;
}

/// A finite real within `range`, stored as value * scale in the fields' own
/// type (float, double or an integer), which the product must fit.
template <typename Fields>
Store real(Fields fields, Interval range = {}, double scale = 1.0) {
  using T = FieldType<Fields>;
  const std::string want = " (want " + describe(range) + ")";
  return [=](LaunchConfig& config, const std::string& value) -> Rejection {
    double parsed = 0.0;
    const char* end = value.data() + value.size();
    const auto [stop, ec] = std::from_chars(value.data(), end, parsed);
    const double scaled = parsed * scale;
    if (ec != std::errc() || stop != end || !fits<T>(scaled) ||
        (range.lo_open ? parsed <= range.lo : parsed < range.lo) ||
        (range.hi_open ? parsed >= range.hi : parsed > range.hi)) {
      return want;
    }
    assign<T>(config, fields, static_cast<T>(scaled));
    return std::nullopt;
  };
}

/// An on/off switch.
template <typename Fields>
Store flag(Fields fields) {
  return [=](LaunchConfig& config, const std::string& value) -> Rejection {
    const bool on = value == "on" || value == "true" || value == "1";
    if (!on && value != "off" && value != "false" && value != "0") {
      return " (want on, off, true, false, 1 or 0)";
    }
    assign<bool>(config, fields, on);
    return std::nullopt;
  };
}

/// Free text, such as an output path (empty = no output).
template <typename Fields>
Store text(Fields fields) {
  return [=](LaunchConfig& config, const std::string& value) -> Rejection {
    assign<std::string>(config, fields, value);
    return std::nullopt;
  };
}

/// A non-empty comma list of integers of the fields' element type, each 0
/// or more.
template <typename Fields>
Store list(Fields fields) {
  using T = FieldType<Fields>;
  using Item = typename T::value_type;
  const std::string want = " (want a comma list of 0.." +
                           std::to_string(std::numeric_limits<Item>::max()) + ")";
  return [=](LaunchConfig& config, const std::string& value) -> Rejection {
    T items;
    std::stringstream ss(value);
    for (std::string item; std::getline(ss, item, ',');) {
      Item parsed{};
      if (!parse_integer(trim(item), &parsed) || std::cmp_less(parsed, 0)) return want;
      items.push_back(parsed);
    }
    if (items.empty()) return want;
    assign<T>(config, fields, items);
    return std::nullopt;
  };
}

// The keys whose values are names.

Rejection algo_kind(LaunchConfig& config, const std::string& value) {
  const std::pair<const char*, AlgoKind> kinds[] = {
      {"impala", AlgoKind::kImpala},
      {"dqn", AlgoKind::kDqn},
      {"ppo", AlgoKind::kPpo},
      {"a2c", AlgoKind::kA2c},
  };
  for (const auto& [name, kind] : kinds) {
    if (value == name) {
      config.setup.kind = kind;
      return std::nullopt;
    }
  }
  return " '" + value + "' (want impala, dqn, ppo or a2c)";
}

/// The runtime sizes its networks from an environment of this name, so an
/// unknown one is rejected here rather than at launch.
Rejection env_by_name(LaunchConfig& config, const std::string& value) {
  const std::vector<std::string> names = registered_environments();
  if (std::find(names.begin(), names.end(), value) != names.end()) {
    config.setup.env_name = value;
    return std::nullopt;
  }
  std::string want;
  for (const std::string& name : names) want += (want.empty() ? "" : ", ") + name;
  return " '" + value + "' (want one of " + want + ")";
}

Rejection shed_policy(LaunchConfig& config, const std::string& value) {
  if (value != "oldest" && value != "newest") {
    return " '" + value + "' (want oldest or newest)";
  }
  config.deployment.overload.shed_policy =
      value == "oldest" ? ShedPolicy::kOldest : ShedPolicy::kNewest;
  return std::nullopt;
}

Rejection weights_codec(LaunchConfig& config, const std::string& value) {
  const auto codec = parse_weight_codec(value);
  if (!codec) {
    return " codec '" + value + "' (want fp32, fp16, bf16, int8, delta, or topk)";
  }
  config.deployment.weight_sync.codec = *codec;
  return std::nullopt;
}

/// `auto` is -1: one compute thread per hardware thread.
Store compute_threads() {
  const Store count = integer(XT_FIELDS(c.deployment.compute_threads), -1, 4096);
  return [count](LaunchConfig& config, const std::string& value) -> Rejection {
    if (count(config, value == "auto" ? "-1" : value)) {
      return " (want auto or -1..4096)";
    }
    return std::nullopt;
  };
}

/// Every key, in the order README's configuration reference lists them.
const std::vector<Key>& key_table() {
  static const std::vector<Key> table = {
      {"algorithm", "kind", algo_kind},
      {"algorithm", "env", env_by_name},
      {"algorithm", "seed", integer(XT_FIELDS(c.setup.seed))},
      {"algorithm", "lr",
       real(XT_FIELDS(c.setup.dqn.lr, c.setup.ppo.lr, c.setup.impala.lr))},
      {"algorithm", "gamma",
       real(XT_FIELDS(c.setup.dqn.gamma, c.setup.ppo.gamma, c.setup.impala.gamma))},
      {"algorithm", "hidden",
       list(XT_FIELDS(c.setup.dqn.hidden, c.setup.ppo.hidden, c.setup.impala.hidden))},
      {"algorithm", "fragment_len",
       integer(XT_FIELDS(c.setup.ppo.fragment_len, c.setup.impala.fragment_len))},
      {"algorithm", "frame_bytes_per_step",
       integer(XT_FIELDS(c.setup.dqn.frame_bytes_per_step,
                         c.setup.ppo.frame_bytes_per_step,
                         c.setup.impala.frame_bytes_per_step))},
      {"algorithm", "replay_capacity",
       integer(XT_FIELDS(c.setup.dqn.replay_capacity), 1)},
      {"algorithm", "train_start", integer(XT_FIELDS(c.setup.dqn.train_start))},
      {"algorithm", "batch_size", integer(XT_FIELDS(c.setup.dqn.batch_size))},
      {"algorithm", "double_dqn", flag(XT_FIELDS(c.setup.dqn.double_dqn))},
      {"algorithm", "prioritized_replay", flag(XT_FIELDS(c.setup.dqn.prioritized))},
      {"algorithm", "epochs", integer(XT_FIELDS(c.setup.ppo.epochs))},
      {"algorithm", "clip", real(XT_FIELDS(c.setup.ppo.clip))},
      {"algorithm", "entropy_coef",
       real(XT_FIELDS(c.setup.ppo.entropy_coef, c.setup.impala.entropy_coef))},

      {"deployment", "explorers_per_machine",
       list(XT_FIELDS(c.deployment.explorers_per_machine))},
      {"deployment", "learner_machine",
       integer(XT_FIELDS(c.deployment.learner_machine))},
      {"deployment", "max_steps", integer(XT_FIELDS(c.deployment.max_steps_consumed))},
      {"deployment", "max_seconds", real(XT_FIELDS(c.deployment.max_seconds))},
      {"deployment", "target_return", real(XT_FIELDS(c.deployment.target_return))},
      {"deployment", "target_return_window",
       integer(XT_FIELDS(c.deployment.target_return_window))},
      {"deployment", "nic_bandwidth_mbps",
       real(XT_FIELDS(c.deployment.link.bandwidth_bytes_per_sec), {}, 1e6)},
      {"deployment", "ipc_bandwidth_mbps",
       real(XT_FIELDS(c.deployment.broker.ipc_bandwidth_bytes_per_sec), {}, 1e6)},
      {"deployment", "compression",
       flag(XT_FIELDS(c.deployment.broker.compression.enabled))},
      {"deployment", "compression_threshold_kb",
       integer(XT_FIELDS(c.deployment.broker.compression.threshold_bytes), 0, kNoMax,
               1024)},
      {"deployment", "explorer_send_capacity",
       integer(XT_FIELDS(c.deployment.explorer_send_capacity))},
      {"deployment", "stats_csv", text(XT_FIELDS(c.deployment.stats_csv_path))},
      {"deployment", "tracing", flag(XT_FIELDS(c.deployment.obs.tracing))},
      {"deployment", "trace_capacity",
       integer(XT_FIELDS(c.deployment.obs.trace_capacity), 1)},
      {"deployment", "chrome_trace",
       text(XT_FIELDS(c.deployment.obs.chrome_trace_path))},
      {"deployment", "prometheus_dump",
       text(XT_FIELDS(c.deployment.obs.prometheus_path))},
      {"deployment", "stats_line_every_s",
       real(XT_FIELDS(c.deployment.obs.stats_line_every_s))},

      {"compute", "threads", compute_threads()},

      {"profile", "enabled", flag(XT_FIELDS(c.deployment.profile.enabled))},
      {"profile", "hz",
       real(XT_FIELDS(c.deployment.profile.hz), {.lo = 0, .lo_open = true})},
      {"profile", "saturation_hz",
       real(XT_FIELDS(c.deployment.profile.saturation_hz), {.lo = 0, .lo_open = true})},
      {"profile", "profile_json",
       text(XT_FIELDS(c.deployment.profile.profile_json_path))},

      {"comm", "router_shards",
       integer(XT_FIELDS(c.deployment.broker.router_shards), 1, 64)},
      {"comm", "overload_high_watermark",
       integer(XT_FIELDS(c.deployment.overload.high_watermark), 0, 100'000'000)},
      {"comm", "overload_low_watermark",
       integer(XT_FIELDS(c.deployment.overload.low_watermark), 0, 100'000'000)},
      {"comm", "shed_policy", shed_policy},
      {"comm", "weights_block_ms",
       integer(XT_FIELDS(c.deployment.overload.weights_block_ms), 0, 60'000)},
      {"comm", "breaker_failures",
       integer(XT_FIELDS(c.deployment.overload.breaker_failures), 0, 1024)},
      {"comm", "breaker_probe_ms",
       integer(XT_FIELDS(c.deployment.overload.breaker_probe_ms), 1, 60'000)},

      {"codec", "weights", weights_codec},
      {"codec", "topk_fraction",
       real(XT_FIELDS(c.deployment.weight_sync.topk_fraction),
            {.lo = 0, .hi = 0.5, .lo_open = true})},
      {"codec", "keyframe_every",
       integer(XT_FIELDS(c.deployment.weight_sync.keyframe_every), 1, 100'000)},
      {"codec", "lazy_threshold",
       real(XT_FIELDS(c.deployment.weight_sync.lazy_threshold),
            {.lo = 0, .hi = 1, .hi_open = true})},
      {"codec", "max_staleness",
       integer(XT_FIELDS(c.deployment.weight_sync.max_staleness), 1, 100'000)},

      {"faults", "seed", integer(XT_FIELDS(c.deployment.link.faults.seed))},
      {"faults", "drop_prob",
       real(XT_FIELDS(c.deployment.link.faults.drop_probability), {.lo = 0, .hi = 1})},
      {"faults", "corrupt_prob",
       real(XT_FIELDS(c.deployment.link.faults.corrupt_probability),
            {.lo = 0, .hi = 1})},
      {"faults", "delay_prob",
       real(XT_FIELDS(c.deployment.link.faults.delay_probability), {.lo = 0, .hi = 1})},
      {"faults", "delay_ms",
       real(XT_FIELDS(c.deployment.link.faults.delay_ns), {}, 1e6)},
      {"faults", "blackout_start_s",
       real(XT_FIELDS(c.deployment.link.faults.blackout_start_s))},
      {"faults", "blackout_duration_s",
       real(XT_FIELDS(c.deployment.link.faults.blackout_duration_s))},
      {"faults", "blackout_every_s",
       real(XT_FIELDS(c.deployment.link.faults.blackout_every_s))},
      {"faults", "reliable", flag(XT_FIELDS(c.deployment.reliability.enabled))},
      {"faults", "retransmit_timeout_ms",
       real(XT_FIELDS(c.deployment.reliability.rto_ms))},
      {"faults", "retransmit_backoff",
       real(XT_FIELDS(c.deployment.reliability.backoff))},
      {"faults", "retransmit_max_ms",
       real(XT_FIELDS(c.deployment.reliability.max_rto_ms))},
      {"faults", "retransmit_max_retries",
       integer(XT_FIELDS(c.deployment.reliability.max_retries))},
      {"faults", "supervision", flag(XT_FIELDS(c.deployment.supervision.enabled))},
      {"faults", "heartbeat_every_s",
       real(XT_FIELDS(c.deployment.supervision.heartbeat_every_s))},
      {"faults", "heartbeat_timeout_s",
       real(XT_FIELDS(c.deployment.supervision.heartbeat_timeout_s))},
      {"faults", "max_worker_restarts",
       integer(XT_FIELDS(c.deployment.supervision.max_restarts_per_worker))},
      {"faults", "suspect_grace_s",
       real(XT_FIELDS(c.deployment.supervision.suspect_grace_s), {.lo = 0})},
      {"faults", "respawn_min_interval_s",
       real(XT_FIELDS(c.deployment.supervision.respawn_min_interval_s), {.lo = 0})},
      {"faults", "checkpoint", text(XT_FIELDS(c.deployment.checkpoint_path))},
      {"faults", "checkpoint_every_versions",
       integer(XT_FIELDS(c.deployment.checkpoint_every_versions))},
  };
  return table;
}

#undef XT_FIELDS

std::nullopt_t fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return std::nullopt;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> launch_config_keys() {
  std::vector<std::pair<std::string, std::string>> keys;
  for (const Key& key : key_table()) keys.emplace_back(key.section, key.name);
  return keys;
}

std::optional<LaunchConfig> parse_launch_config(const std::string& contents,
                                                std::string* error) {
  const std::vector<Key>& table = key_table();
  LaunchConfig config;
  std::string section;
  std::stringstream ss(contents);
  std::string raw_line;
  int line = 0;
  const auto fail_at_line = [&](const std::string& message) {
    return fail(error, "line " + std::to_string(line) + ": " + message);
  };
  while (std::getline(ss, raw_line)) {
    ++line;
    const std::string text = trim(raw_line.substr(0, raw_line.find('#')));
    if (text.empty()) continue;

    if (text.front() == '[') {
      if (text.back() != ']') return fail_at_line("unterminated section header");
      section = text.substr(1, text.size() - 2);
      if (std::none_of(table.begin(), table.end(),
                       [&](const Key& key) { return key.section == section; })) {
        return fail_at_line("unknown section [" + section + "]");
      }
      continue;
    }

    const auto eq = text.find('=');
    if (eq == std::string::npos) return fail_at_line("expected 'key = value'");
    const std::string name = trim(text.substr(0, eq));
    const std::string value = trim(text.substr(eq + 1));
    if (section.empty()) return fail_at_line("key outside any section");
    const auto entry = std::find_if(table.begin(), table.end(), [&](const Key& key) {
      return key.section == section && key.name == name;
    });
    if (entry == table.end()) {
      return fail_at_line("unknown [" + section + "] key '" + name + "'");
    }
    if (const Rejection why = entry->store(config, value)) {
      return fail_at_line("bad " + name + *why);
    }
  }

  // Cross-field checks run after every key is in, so key order in the file
  // does not matter. A low watermark without a high one gates nothing, and
  // the hysteresis band needs low < high.
  const OverloadConfig& overload = config.deployment.overload;
  if (overload.low_watermark > 0 && overload.high_watermark == 0) {
    return fail(error,
                "[comm] overload_low_watermark requires overload_high_watermark");
  }
  if (overload.low_watermark > 0 && overload.low_watermark >= overload.high_watermark) {
    return fail(error,
                "[comm] overload_low_watermark must be below overload_high_watermark");
  }
  const std::size_t machines = config.deployment.explorers_per_machine.size();
  if (config.deployment.learner_machine >= machines) {
    return fail(error,
                "[deployment] learner_machine must be below the machine count (" +
                    std::to_string(machines) + ")");
  }
  // Explorer ids carry a 16-bit global index.
  if (config.deployment.total_explorers() > 65'536) {
    return fail(error, "[deployment] explorers_per_machine must total at most "
                       "65536 explorers");
  }

  // PPO's learner must know the explorer count; keep them consistent.
  config.setup.ppo.n_explorers =
      static_cast<std::size_t>(config.deployment.total_explorers());
  return config;
}

std::optional<LaunchConfig> load_launch_config(const std::string& path,
                                               std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::string contents;
  char buffer[4096];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(file);
  return parse_launch_config(contents, error);
}

}  // namespace xt
