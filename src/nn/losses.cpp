#include "nn/losses.h"

#include <cassert>
#include <cmath>

namespace xt::nn {

Matrix softmax(const Matrix& logits) {
  Matrix out = logits;
  for (std::size_t r = 0; r < out.rows(); ++r) {
    float* row = out.row_ptr(r);
    float max_v = row[0];
    for (std::size_t c = 1; c < out.cols(); ++c) max_v = std::max(max_v, row[c]);
    float sum = 0.0f;
    for (std::size_t c = 0; c < out.cols(); ++c) {
      row[c] = std::exp(row[c] - max_v);
      sum += row[c];
    }
    for (std::size_t c = 0; c < out.cols(); ++c) row[c] /= sum;
  }
  return out;
}

Matrix log_softmax(const Matrix& logits) {
  Matrix out = logits;
  for (std::size_t r = 0; r < out.rows(); ++r) {
    float* row = out.row_ptr(r);
    float max_v = row[0];
    for (std::size_t c = 1; c < out.cols(); ++c) max_v = std::max(max_v, row[c]);
    float sum = 0.0f;
    for (std::size_t c = 0; c < out.cols(); ++c) sum += std::exp(row[c] - max_v);
    const float log_sum = max_v + std::log(sum);
    for (std::size_t c = 0; c < out.cols(); ++c) row[c] -= log_sum;
  }
  return out;
}

std::vector<float> entropy(const Matrix& logits) {
  const Matrix logp = log_softmax(logits);
  std::vector<float> out(logits.rows());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const float* row = logp.row_ptr(r);
    float h = 0.0f;
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      h -= std::exp(row[c]) * row[c];
    }
    out[r] = h;
  }
  return out;
}

std::vector<float> action_log_probs(const Matrix& logits,
                                    const std::vector<std::int32_t>& actions) {
  assert(actions.size() == logits.rows());
  const Matrix logp = log_softmax(logits);
  std::vector<float> out(actions.size());
  for (std::size_t r = 0; r < actions.size(); ++r) {
    out[r] = logp.at(r, static_cast<std::size_t>(actions[r]));
  }
  return out;
}

std::int32_t sample_from_logits(const float* logits, std::size_t n, Rng& rng) {
  float max_v = logits[0];
  for (std::size_t i = 1; i < n; ++i) max_v = std::max(max_v, logits[i]);
  double sum = 0.0;
  std::vector<double> probs(n);
  for (std::size_t i = 0; i < n; ++i) {
    probs[i] = std::exp(static_cast<double>(logits[i]) - max_v);
    sum += probs[i];
  }
  double r = rng.uniform() * sum;
  for (std::size_t i = 0; i < n; ++i) {
    r -= probs[i];
    if (r <= 0.0) return static_cast<std::int32_t>(i);
  }
  return static_cast<std::int32_t>(n - 1);
}

std::int32_t argmax_row(const float* values, std::size_t n) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (values[i] > values[best]) best = i;
  }
  return static_cast<std::int32_t>(best);
}

float mse_loss(const Matrix& pred, const Matrix& target, Matrix& grad) {
  return mse_loss(pred, target, grad, pred.rows());
}

float mse_loss(const Matrix& pred, const Matrix& target, Matrix& grad,
               std::size_t batch_rows) {
  assert(pred.rows() == target.rows() && pred.cols() == target.cols());
  grad = Matrix::zeros(pred.rows(), pred.cols());
  const auto n = static_cast<float>(batch_rows * pred.cols());
  double loss = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const float d = pred.data()[i] - target.data()[i];
    loss += 0.5 * static_cast<double>(d) * d;
    grad.data()[i] = d / n;
  }
  return static_cast<float>(loss / n);
}

float huber_loss_selected(const Matrix& pred, const std::vector<float>& targets,
                          const std::vector<std::int32_t>& actions, Matrix& grad) {
  assert(targets.size() == pred.rows() && actions.size() == pred.rows());
  grad = Matrix::zeros(pred.rows(), pred.cols());
  const auto n = static_cast<float>(pred.rows());
  double loss = 0.0;
  for (std::size_t r = 0; r < pred.rows(); ++r) {
    const auto a = static_cast<std::size_t>(actions[r]);
    const float d = pred.at(r, a) - targets[r];
    if (std::abs(d) <= 1.0f) {
      loss += 0.5 * static_cast<double>(d) * d;
      grad.at(r, a) = d / n;
    } else {
      loss += std::abs(d) - 0.5;
      grad.at(r, a) = (d > 0.0f ? 1.0f : -1.0f) / n;
    }
  }
  return static_cast<float>(loss / n);
}

Matrix policy_gradient(const Matrix& logits,
                       const std::vector<std::int32_t>& actions,
                       const std::vector<float>& coefs, float entropy_coef) {
  return policy_gradient(logits, actions, coefs, entropy_coef, logits.rows());
}

Matrix policy_gradient(const Matrix& logits,
                       const std::vector<std::int32_t>& actions,
                       const std::vector<float>& coefs, float entropy_coef,
                       std::size_t batch_rows) {
  assert(actions.size() == logits.rows() && coefs.size() == logits.rows());
  const Matrix probs = softmax(logits);
  const Matrix logp = log_softmax(logits);
  Matrix grad = Matrix::zeros(logits.rows(), logits.cols());
  const auto n = static_cast<float>(batch_rows);

  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const auto a = static_cast<std::size_t>(actions[r]);
    const float* p = probs.row_ptr(r);
    const float* lp = logp.row_ptr(r);
    float* g = grad.row_ptr(r);

    // -coef * d logp(a) / dz  =  -coef * (onehot(a) - p)
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      g[c] = coefs[r] / n * p[c];
    }
    g[a] -= coefs[r] / n;

    if (entropy_coef != 0.0f) {
      // Loss includes -entropy_coef * H; dH/dz_j = -p_j (logp_j + H).
      float h = 0.0f;
      for (std::size_t c = 0; c < logits.cols(); ++c) h -= p[c] * lp[c];
      for (std::size_t c = 0; c < logits.cols(); ++c) {
        g[c] += entropy_coef / n * p[c] * (lp[c] + h);
      }
    }
  }
  return grad;
}

}  // namespace xt::nn
