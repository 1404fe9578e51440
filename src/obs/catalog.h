#pragma once

#include "obs/metrics.h"

namespace xt::metric {

// The metric catalog: one row per family the program records, with its name,
// its kind and its label keys in series order, grouped by the layer that
// records it. Each row defines `metric::<name>`, the only spelling of the
// family: sites register and read series through it, and kStages names its
// histograms' rows. A name ends in its unit: `_ms`, `_bytes`, `_total` (count).
// clang-format off
#define XT_METRIC_CATALOG(ROW)                                                      \
  /* comm: endpoint (sender and receiver) */                                        \
  ROW(xt_messages_sent_total, kCounter, "machine")                                  \
  ROW(xt_bytes_sent_total, kCounter, "machine")                                     \
  ROW(xt_messages_received_total, kCounter, "machine")                              \
  ROW(xt_bytes_received_total, kCounter, "machine")                                 \
  ROW(xt_store_deep_copy_bytes_total, kCounter, "machine")                          \
  ROW(xt_send_serialize_ms, kHistogram, "machine")                                  \
  ROW(xt_store_put_ms, kHistogram, "machine")                                       \
  ROW(xt_recv_decode_ms, kHistogram, "machine")                                     \
  ROW(xt_transmission_ms, kHistogram, "machine")                                    \
  ROW(xt_codec_compress_ms, kHistogram, "machine")                                  \
  ROW(xt_codec_decompress_ms, kHistogram, "machine")                                \
  ROW(xt_codec_bytes_in_total, kCounter, "machine")                                 \
  ROW(xt_codec_bytes_out_total, kCounter, "machine")                                \
  ROW(xt_codec_messages_compressed_total, kCounter, "machine")                      \
  /* Sheds at the router queue, the inboxes and the endpoint buffers. */            \
  ROW(xt_messages_shed_total, kCounter, "machine", "class", "reason")               \
  /* comm: broker */                                                                \
  ROW(xt_broker_routed_total, kCounter, "machine")                                  \
  ROW(xt_broker_forwarded_total, kCounter, "machine")                               \
  ROW(xt_broker_rehosted_total, kCounter, "machine")                                \
  /* Every drop once; xt_broker_drops_by_reason_total splits them by reason. */     \
  ROW(xt_broker_dropped_total, kCounter, "machine")                                 \
  ROW(xt_broker_drops_by_reason_total, kCounter, "machine", "reason")               \
  ROW(xt_broker_route_ms, kHistogram, "machine")                                    \
  ROW(xt_queue_wait_ms, kHistogram, "machine")                                      \
  ROW(xt_frames_corrupted_total, kCounter, "machine")                               \
  /* comm: object store */                                                          \
  ROW(xt_store_puts_total, kCounter, "machine")                                     \
  ROW(xt_store_put_bytes_total, kCounter, "machine")                                \
  /* Receiver fetches, one per local destination. */                                \
  ROW(xt_store_fetches_total, kCounter, "machine")                                  \
  ROW(xt_store_live_bytes, kGauge, "machine")                                       \
  /* netsim: paced pipe (`link` is "mA>mB") */                                      \
  ROW(xt_pipe_transmit_ms, kHistogram, "link")                                      \
  ROW(xt_pipe_wire_bytes_total, kCounter, "link")                                   \
  ROW(xt_pipe_frames_total, kCounter, "link")                                       \
  /* Frames still queued for the wire when the pipe stopped. */                     \
  ROW(xt_pipe_shutdown_drops_total, kCounter, "link")                               \
  /* Only under a bounded overload policy. */                                       \
  ROW(xt_frames_shed_total, kCounter, "link")                                       \
  /* Only with an enabled fault plan; kind is drop, corrupt, delay or blackout. */  \
  ROW(xt_faults_injected_total, kCounter, "link", "kind")                           \
  /* netsim: reliable link (only with reliability on) */                            \
  ROW(xt_retransmits_total, kCounter, "link")                                       \
  ROW(xt_retransmit_give_ups_total, kCounter, "link")                               \
  ROW(xt_link_duplicate_frames_total, kCounter, "link")                             \
  ROW(xt_link_acks_total, kCounter, "link")                                         \
  ROW(xt_link_state, kGauge, "link")                                                \
  ROW(xt_link_breaker_opens_total, kCounter, "link")                                \
  ROW(xt_link_breaker_shed_total, kCounter, "link")                                 \
  /* compress: weight encoder session (learner) */                                  \
  ROW(xt_weights_encode_ms, kHistogram, "machine")                                  \
  ROW(xt_weights_compression_ratio, kHistogram, "machine")                          \
  ROW(xt_weights_bytes_total, kCounter, "codec", "machine")                         \
  ROW(xt_weights_raw_bytes_total, kCounter, "machine")                              \
  ROW(xt_weights_skipped_total, kCounter, "machine")                                \
  ROW(xt_weights_keyframes_total, kCounter, "machine")                              \
  /* Published version minus the newest one every destination acked (0 if one       \
     never did), at each encode with a base that is no cadence keyframe. */         \
  ROW(xt_weights_ack_lag, kHistogram, "machine")                                    \
  /* compress: weight decoder session (explorer) */                                 \
  ROW(xt_weights_decode_ms, kHistogram, "machine")                                  \
  ROW(xt_weights_decode_failures_total, kCounter, "machine")                        \
  /* framework: explorer */                                                         \
  ROW(xt_explorer_rollout_ms, kHistogram, "machine")                                \
  ROW(xt_explorer_wait_ms, kHistogram, "machine")                                   \
  ROW(xt_explorer_env_steps_total, kCounter, "machine")                             \
  ROW(xt_explorer_batches_total, kCounter, "machine")                               \
  ROW(xt_weights_applied_total, kCounter, "machine")                                \
  ROW(xt_weights_nacks_total, kCounter, "machine")                                  \
  ROW(xt_weights_broadcast_ms, kHistogram, "machine")                               \
  /* framework: learner */                                                          \
  ROW(xt_learner_wait_ms, kHistogram, "machine")                                    \
  ROW(xt_learner_train_ms, kHistogram, "machine")                                   \
  ROW(xt_weights_keyframe_requests_total, kCounter, "machine")                      \
  /* framework: supervisor (only with supervision on) */                            \
  /* One per silence episode, i.e. per missed heartbeat timeout. */                 \
  ROW(xt_workers_suspected_total, kCounter)                                         \
  ROW(xt_worker_restarts_total, kCounter)                                           \
  ROW(xt_respawns_suppressed_total, kCounter)                                       \
  /* framework: runtime's saturation sampler (only with profiling on) */            \
  /* Router queues, inboxes and pipes: "router-mN", "inbox-...", "pipe-mA>mB". */   \
  ROW(xt_queue_depth, kGauge, "queue")                                              \
  ROW(xt_store_live_objects, kGauge, "machine")                                     \
  ROW(xt_pool_pending_chunks, kGauge)                                               \
  ROW(xt_link_utilization, kGauge, "link")                                          \
  /* nn: kernels, per thread binding (role "learner" or "explorer") */              \
  ROW(xt_gemm_ms, kHistogram, "role", "machine")                                    \
  ROW(xt_gemm_flops_total, kCounter, "role", "machine")                             \
  /* baselines: pull driver */                                                      \
  ROW(xt_pull_wait_ms, kHistogram)                                                  \
  ROW(xt_pull_train_ms, kHistogram)                                                 \
  ROW(xt_pull_transmission_ms, kHistogram)                                          \
  ROW(xt_pull_messages_total, kCounter)                                             \
  ROW(xt_pull_bytes_total, kCounter)                                                \
  /* obs: the exporter's own line, warn and error log lines of the process */       \
  ROW(xt_log_warnings_total, kCounter)

#define XT_METRIC_DEFINE(name, kind, ...) \
  inline constexpr MetricRow name{#name, MetricKind::kind, {__VA_ARGS__}};
#define XT_METRIC_ADDRESS(name, kind, ...) &name,

XT_METRIC_CATALOG(XT_METRIC_DEFINE)

/// Every row, in the catalog's order.
inline constexpr const MetricRow* kCatalog[] = {XT_METRIC_CATALOG(XT_METRIC_ADDRESS)};

#undef XT_METRIC_ADDRESS
#undef XT_METRIC_DEFINE
#undef XT_METRIC_CATALOG
// clang-format on

}  // namespace xt::metric
