#pragma once
// Sequential stationary iterative methods (Sec. II of the paper): the
// baselines every experiment compares against, and the methods Sec. IV-B
// shows to be special cases of propagation-matrix sequences.

#include "ajac/solvers/common.hpp"
#include "ajac/sparse/types.hpp"

namespace ajac {
class CsrMatrix;
}

namespace ajac::solvers {

/// D^{-1} as a vector (1 / a_ii), the Jacobi correction every driver
/// applies; AJAC_CHECK-fails with "zero diagonal at row i" on a zero a_ii.
[[nodiscard]] Vector inverse_diagonal(const CsrMatrix& a);

/// Synchronous Jacobi in residual-correction form, exactly the paper's
/// implementation skeleton (Sec. V): r = b - A x; x = x + D^{-1} r.
[[nodiscard]] SolveResult jacobi(const CsrMatrix& a, const Vector& b,
                                 const Vector& x0,
                                 const SolveOptions& opts = {});

/// Weighted (damped) Jacobi: x = x + omega * D^{-1} r.
[[nodiscard]] SolveResult weighted_jacobi(const CsrMatrix& a, const Vector& b,
                                          const Vector& x0, double omega,
                                          const SolveOptions& opts = {});

/// Gauss–Seidel with natural (ascending) ordering: M = L (lower triangular
/// part of A including the diagonal).
[[nodiscard]] SolveResult gauss_seidel(const CsrMatrix& a, const Vector& b,
                                       const Vector& x0,
                                       const SolveOptions& opts = {});

/// Backward Gauss–Seidel (descending row order).
[[nodiscard]] SolveResult gauss_seidel_backward(const CsrMatrix& a,
                                                const Vector& b,
                                                const Vector& x0,
                                                const SolveOptions& opts = {});

/// Successive over-relaxation with parameter omega (omega = 1 is GS).
[[nodiscard]] SolveResult sor(const CsrMatrix& a, const Vector& b,
                              const Vector& x0, double omega,
                              const SolveOptions& opts = {});

/// Symmetric SOR: one forward then one backward SOR pass per iteration
/// (omega = 1 gives symmetric Gauss-Seidel). The iteration operator is
/// symmetric for SPD A, making SSOR usable as a CG preconditioner.
[[nodiscard]] SolveResult ssor(const CsrMatrix& a, const Vector& b,
                               const Vector& x0, double omega,
                               const SolveOptions& opts = {});

/// Multicolor Gauss–Seidel: rows of each color relax in parallel
/// (additively), colors sweep sequentially (multiplicatively). `colors`
/// must be a valid coloring of A's pattern.
[[nodiscard]] SolveResult multicolor_gauss_seidel(
    const CsrMatrix& a, const Vector& b, const Vector& x0,
    const std::vector<index_t>& colors, index_t num_colors,
    const SolveOptions& opts = {});

/// Inexact block Jacobi on contiguous blocks: each sweep applies
/// `inner_sweeps` Gauss–Seidel passes *within* each block, blocks updated
/// additively from the same global state (Jager & Bradley's inexact block
/// Jacobi baseline). `block_starts` has one entry per block plus a final
/// sentinel equal to n.
[[nodiscard]] SolveResult inexact_block_jacobi(
    const CsrMatrix& a, const Vector& b, const Vector& x0,
    const std::vector<index_t>& block_starts, index_t inner_sweeps = 1,
    const SolveOptions& opts = {});

}  // namespace ajac::solvers
