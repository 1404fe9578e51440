#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "nn/matrix.h"

namespace xt::nn {

/// Row-wise softmax of logits.
[[nodiscard]] Matrix softmax(const Matrix& logits);

/// Row-wise log-softmax (numerically stable).
[[nodiscard]] Matrix log_softmax(const Matrix& logits);

/// Per-row entropy of the softmax distribution over logits.
[[nodiscard]] std::vector<float> entropy(const Matrix& logits);

/// Log-probability of the chosen action per row.
[[nodiscard]] std::vector<float> action_log_probs(const Matrix& logits,
                                                  const std::vector<std::int32_t>& actions);

/// Sample an action from the softmax distribution over one logits row.
[[nodiscard]] std::int32_t sample_from_logits(const float* logits, std::size_t n, Rng& rng);

/// Index of the max element in one logits row (greedy action).
[[nodiscard]] std::int32_t argmax_row(const float* values, std::size_t n);

/// Mean squared error loss and its gradient wrt predictions (pred - target)
/// * 2 / N. Returns the scalar loss; writes the gradient into `grad`.
float mse_loss(const Matrix& pred, const Matrix& target, Matrix& grad);
/// The same for some rows of a batch of `batch_rows` rows: N is the whole
/// batch's element count (one column), so a batch's gradient rows get the
/// same bits however it is cut. The returned loss covers only these rows.
float mse_loss(const Matrix& pred, const Matrix& target, Matrix& grad,
               std::size_t batch_rows);

/// Huber loss (delta = 1) on selected entries; used by DQN. `pred` is the
/// N x A Q-matrix, targets/actions are length-N. Gradient is sparse: only
/// the chosen action's column per row is touched. Returns mean loss.
float huber_loss_selected(const Matrix& pred, const std::vector<float>& targets,
                          const std::vector<std::int32_t>& actions, Matrix& grad);

/// dL/dlogits for the policy-gradient term `-mean(coef_i * logp(a_i))`:
/// grad_row_i = -coef_i/N * (onehot(a_i) - softmax(logits_i)).
/// Also adds `entropy_coef` worth of entropy-maximization gradient.
/// Used by both PPO (coef = clipped ratio * advantage indicator form) and
/// IMPALA (coef = rho * vtrace advantage).
[[nodiscard]] Matrix policy_gradient(const Matrix& logits,
                                     const std::vector<std::int32_t>& actions,
                                     const std::vector<float>& coefs,
                                     float entropy_coef);
/// The same for some rows of a batch of `batch_rows` rows: N is the whole
/// batch's row count, so a batch's rows get the same bits however it is cut.
[[nodiscard]] Matrix policy_gradient(const Matrix& logits,
                                     const std::vector<std::int32_t>& actions,
                                     const std::vector<float>& coefs,
                                     float entropy_coef, std::size_t batch_rows);

}  // namespace xt::nn
