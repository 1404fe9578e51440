#include "grad_check.h"

#include <algorithm>
#include <cmath>

namespace xt::nn {

double max_gradient_error(Mlp& net, const std::function<float()>& loss_fn,
                          float eps, double quantile) {
  // Analytic gradients for the unperturbed parameters.
  net.zero_grad();
  (void)loss_fn();
  std::vector<std::vector<float>> analytic;
  for (Matrix* g : net.gradients()) analytic.push_back(g->data());

  std::vector<double> errors;
  const auto params = net.parameters();
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    auto& data = params[pi]->data();
    for (std::size_t j = 0; j < data.size(); ++j) {
      const float saved = data[j];
      data[j] = saved + eps;
      net.zero_grad();
      const double loss_plus = loss_fn();
      data[j] = saved - eps;
      net.zero_grad();
      const double loss_minus = loss_fn();
      data[j] = saved;

      const double numeric = (loss_plus - loss_minus) / (2.0 * eps);
      const double a = analytic[pi][j];
      const double denom = std::max({std::abs(numeric), std::abs(a), 1e-4});
      errors.push_back(std::abs(numeric - a) / denom);
    }
  }
  // Restore analytic gradients so callers can continue training.
  net.zero_grad();
  (void)loss_fn();

  if (errors.empty()) return 0.0;
  std::sort(errors.begin(), errors.end());
  const auto idx = static_cast<std::size_t>(
      std::clamp(quantile, 0.0, 1.0) * static_cast<double>(errors.size() - 1));
  return errors[idx];
}

}  // namespace xt::nn
