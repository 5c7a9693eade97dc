#pragma once
// The public calls the benchmark times, each followed by the independent
// check, and the options that make a direct runtime call match the facade.

#include <cstdint>
#include <vector>

#include "ajac/core/ajac.hpp"
#include "ajac/solvers/krylov.hpp"
#include "workloads.hpp"

namespace e2e {

/// Operations attempted and failed. A call fails when it reports no
/// convergence or its result fails check_solution.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

[[nodiscard]] ajac::SolveConfig facade_config(double tol, bool synchronous);

/// The SharedOptions ajac::solve / solve_batch build from facade_config
/// (nnz-balanced partition included), for direct runtime calls.
[[nodiscard]] ajac::runtime::SharedOptions shared_options(
    const ajac::CsrMatrix& a, double tol, bool synchronous);

/// The MeshOptions ajac::solve builds for Backend::kMesh.
[[nodiscard]] ajac::mesh::MeshOptions mesh_options(double tol);

[[nodiscard]] ajac::solvers::CgOptions pcg_options(double tol);

/// check_solution(...).pass for column `c` of a system with matrix `a`.
[[nodiscard]] bool passes(const ajac::CsrMatrix& a, const Column& c,
                          std::span<const double> x, double tol);

struct OpOutcome {
  double wall_s = 0.0;   ///< summed over the op's public calls
  double setup_s = 0.0;  ///< summed wall time outside the parallel phase
};

/// Run `op` on every column of `s` (one batched call for the batch ops),
/// timing each public call alone and checking each result afterwards.
[[nodiscard]] OpOutcome run_op(Op op, const Sample& s, double tol,
                               Tally& tally);

}  // namespace e2e
