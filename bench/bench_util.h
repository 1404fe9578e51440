#pragma once

// Shared plumbing for the paper-reproduction benchmark binaries: banner and
// table printing, the end-of-run shape checks (does the qualitative result
// match the paper — who wins, by roughly what factor), and the common
// modeled-cost constants documented in DESIGN.md / EXPERIMENTS.md.

#include <concepts>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "comm/broker.h"
#include "common/clock.h"
#include "common/stats.h"
#include "framework/deployment.h"
#include "obs/exporters.h"

namespace xt::bench {

using xt::format_bytes;
using xt::format_si;

/// Effective serialize+copy bandwidth of the paper's Python/Arrow IPC stack
/// (13.8 MB IMPALA rollouts took ~212 ms through the XingTian channel,
/// paper Fig. 8(b)). Both frameworks are paced at this same rate so that
/// measured differences isolate the communication *model*.
inline constexpr double kIpcBandwidth = 65e6;

/// NIC bandwidth between the paper's machines as measured by iperf (Fig. 5).
inline constexpr double kNicBandwidth = 118.04e6;

/// Per-step frame payload giving rollout messages the paper's wire size
/// (an Atari step is ~28 KB of stacked frames; 500 steps ~ 13.9 MB,
/// matching Table 1's IMPALA rollout size).
inline constexpr std::size_t kAtariFrameBytes = 28'000;

inline int g_shape_failures = 0;

inline void banner(const char* title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title);
  std::printf("==============================================================\n");
}

inline void section(const char* name) { std::printf("\n--- %s ---\n", name); }

/// Record a qualitative shape check against the paper's result.
inline void shape_check(const std::string& description, bool ok) {
  std::printf("[%s] %s\n", ok ? "SHAPE-OK  " : "SHAPE-FAIL", description.c_str());
  if (!ok) ++g_shape_failures;
}

/// One-line latency decomposition of a run (paper Figs. 8-10 (b)). All four
/// means come from the run's telemetry histograms (`xt_explorer_rollout_ms`,
/// `xt_transmission_ms`, `xt_learner_wait_ms` / `xt_pull_wait_ms`,
/// `xt_learner_train_ms` / `xt_pull_train_ms`) via RunReport.
inline void print_time_breakdown(const char* label, const RunReport& report) {
  std::printf(
      "  %-10s rollout=%.1fms transmission=%.1fms wait=%.1fms train=%.1fms",
      label, report.mean_rollout_ms, report.mean_transmission_ms,
      report.mean_wait_ms, report.mean_train_ms);
  if (report.gemm_flops > 0) {
    // Kernel attribution (xt_gemm_ms / xt_gemm_flops_total): how much of
    // the train/rollout time above is matmul arithmetic.
    std::printf(" gemm=%.3fms/call %.2fGFLOP", report.mean_gemm_ms,
                static_cast<double>(report.gemm_flops) / 1e9);
  }
  std::printf("\n");
}

/// Submit one message straight into a machine's broker, the way an
/// endpoint's sender thread would: put the body once and hand the header to
/// the router with the claim on it.
inline void submit_direct(Broker& broker, const NodeId& src, const NodeId& dst,
                          MsgType type, const Payload& body) {
  MessageHeader header;
  header.msg_id = next_message_id();
  header.src = src;
  header.dsts = {dst};
  header.type = type;
  header.body_size = body->size();
  header.created_ns = now_ns();
  (void)broker.submit(std::move(header), broker.store().hold(body));
}

/// One `"key": value` field of a gate artifact: a number (`%.6g`, integers
/// exact) or an escaped string.
struct JsonField {
  JsonField(const char* k, double value) : key(k) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    text = buf;
  }
  template <std::integral T>
  JsonField(const char* k, T value) : key(k), text(std::to_string(value)) {}
  JsonField(const char* k, const std::string& value) : key(k), text("\"") {
    append_json_escaped(text, value);
    text += '"';
  }
  const char* key;
  std::string text;
};

/// Write a gate bench's artifact, the file tools/perf_diff compares with its
/// checked-in BENCH_<name>.json: `{"bench": bench, <fields>, "entries":
/// [{<entry>}, ...]}`. False (after saying so) when it cannot be written.
inline bool write_artifact(const char* path, const char* bench,
                           const std::vector<JsonField>& fields,
                           const std::vector<std::vector<JsonField>>& entries) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::printf("cannot write %s\n", path);
    return false;
  }
  std::fprintf(out, "{\n  \"bench\": \"%s\",\n", bench);
  for (const JsonField& field : fields) {
    std::fprintf(out, "  \"%s\": %s,\n", field.key, field.text.c_str());
  }
  std::fprintf(out, "  \"entries\": [\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    std::fprintf(out, "    {");
    for (std::size_t j = 0; j < entries[i].size(); ++j) {
      std::fprintf(out, "%s\"%s\": %s", j > 0 ? ", " : "", entries[i][j].key,
                   entries[i][j].text.c_str());
    }
    std::fprintf(out, "}%s\n", i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path);
  return true;
}

/// Print the shape summary; returns the process exit code.
inline int finish(const char* name) {
  if (g_shape_failures == 0) {
    std::printf("\n%s: all shape checks passed\n", name);
  } else {
    std::printf("\n%s: %d shape check(s) FAILED\n", name, g_shape_failures);
  }
  // Shape deviations are reported, not fatal: they flag where this host's
  // timing differs from the paper's testbed (see EXPERIMENTS.md).
  return 0;
}

}  // namespace xt::bench
