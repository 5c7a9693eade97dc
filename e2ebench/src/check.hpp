#pragma once
// Independent correctness check applied to every solve the benchmark times.
// It reads only the CSR arrays and the vectors, never the solver's own
// residual routines, so a solver that misreports its residual fails here.

#include <span>

#include "ajac/sparse/csr.hpp"

namespace e2e {

struct CheckResult {
  double rel_residual_1 = 0.0;  ///< ||b - A x||_1 / ||b - A x0||_1
  double error_inf = 0.0;       ///< ||x - x*||_inf
  double error_bound = 0.0;     ///< Varah bound on error_inf
  bool pass = false;
};

/// Recompute the relative 1-norm residual of x and check it against `tol`,
/// then check ||x - x*||_inf against Varah's bound for strictly diagonally
/// dominant A, ||A^-1||_inf <= 1 / min_i (|a_ii| - sum_{j!=i} |a_ij|),
/// times ||b - A x||_inf (plus the rounding error of forming b = A x* and
/// the residual in floating point). A matrix that is not strictly
/// diagonally dominant fails: the bound does not exist.
[[nodiscard]] CheckResult check_solution(const ajac::CsrMatrix& a,
                                         std::span<const double> b,
                                         std::span<const double> x0,
                                         std::span<const double> x,
                                         std::span<const double> x_star,
                                         double tol);

}  // namespace e2e
