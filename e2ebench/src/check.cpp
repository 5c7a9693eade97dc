#include "check.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace e2e {

CheckResult check_solution(const ajac::CsrMatrix& a, std::span<const double> b,
                           std::span<const double> x0,
                           std::span<const double> x,
                           std::span<const double> x_star, double tol) {
  const auto row_ptr = a.row_ptr();
  const auto col = a.col_idx();
  const auto val = a.values();
  const ajac::index_t n = a.num_rows();

  double r_norm1 = 0.0;
  double r0_norm1 = 0.0;
  double r_inf = 0.0;
  double margin = std::numeric_limits<double>::infinity();
  double row_scale = 0.0;  // max_i sum_j |a_ij| (|x_j| + |x*_j|)
  ajac::index_t max_row_nnz = 0;
  double error_inf = 0.0;
  for (ajac::index_t i = 0; i < n; ++i) {
    // Same association as the solvers' residual, ((b - a_1 x_1) - a_2 x_2)
    // - ..., so a solve stopped exactly at the tolerance reads the same
    // number here.
    double acc = b[i];
    double acc0 = b[i];
    double diag = 0.0;
    double off = 0.0;
    double scale = 0.0;
    for (ajac::index_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const ajac::index_t j = col[p];
      acc -= val[p] * x[j];
      acc0 -= val[p] * x0[j];
      if (j == i) {
        diag += std::abs(val[p]);
      } else {
        off += std::abs(val[p]);
      }
      scale += std::abs(val[p]) * (std::abs(x[j]) + std::abs(x_star[j]));
    }
    r_norm1 += std::abs(acc);
    r0_norm1 += std::abs(acc0);
    r_inf = std::max(r_inf, std::abs(acc));
    margin = std::min(margin, diag - off);
    row_scale = std::max(row_scale, scale);
    max_row_nnz = std::max(max_row_nnz, row_ptr[i + 1] - row_ptr[i]);
    error_inf = std::max(error_inf, std::abs(x[i] - x_star[i]));
  }

  CheckResult out;
  out.rel_residual_1 = r_norm1 / (r0_norm1 > 0.0 ? r0_norm1 : 1.0);
  out.error_inf = error_inf;
  // b = A x* and the residual above are both rounded: each row's error is
  // at most gamma * sum_j |a_ij| |v_j| with gamma = (nnz_row + 2) eps.
  const double gamma = static_cast<double>(max_row_nnz + 2) *
                       std::numeric_limits<double>::epsilon();
  out.error_bound = margin > 0.0
                        ? (r_inf + 2.0 * gamma * row_scale) / margin
                        : std::numeric_limits<double>::quiet_NaN();
  out.pass = margin > 0.0 && std::isfinite(r_norm1) &&
             std::isfinite(error_inf) && out.rel_residual_1 <= tol &&
             error_inf <= out.error_bound;
  return out;
}

}  // namespace e2e
