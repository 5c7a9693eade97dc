#include "ajac/solvers/stationary.hpp"

#include <cmath>

#include "ajac/obs/metrics.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/validate.hpp"
#include "ajac/sparse/vector_ops.hpp"
#include "ajac/util/check.hpp"
#include "ajac/util/timer.hpp"

namespace ajac::solvers {

namespace {

double residual_norm(std::span<const double> r, ResidualNorm which) {
  switch (which) {
    case ResidualNorm::kL1:
      return vec::norm1(r);
    case ResidualNorm::kL2:
      return vec::norm2(r);
    case ResidualNorm::kLinf:
      return vec::norm_inf(r);
  }
  return 0.0;
}

/// Shared driver: `sweep` mutates x in place once per iteration; the
/// residual is recomputed afterwards for the history (matching the paper's
/// compute-residual / correct / check structure).
template <typename Sweep>
SolveResult iterate(const CsrMatrix& a, const Vector& b, const Vector& x0,
                    const SolveOptions& opts, Sweep&& sweep) {
  AJAC_CHECK(a.num_rows() == a.num_cols());
  const index_t n = a.num_rows();
  AJAC_CHECK(b.size() == static_cast<std::size_t>(n));
  AJAC_CHECK(x0.size() == static_cast<std::size_t>(n));
  AJAC_CHECK(opts.record_every >= 1);
  AJAC_DBG_VALIDATE(validate::csr_structure(a, {.require_square = true}));
  AJAC_DBG_VALIDATE(validate::finite(b, "b"));
  AJAC_DBG_VALIDATE(validate::finite(x0, "x0"));

  SolveResult result;
  result.x = x0;
  Vector r(static_cast<std::size_t>(n));
  a.residual(result.x, b, r);
  const double r0 = residual_norm(r, opts.norm);
  const double denom = r0 > 0.0 ? r0 : 1.0;
  result.history.push_back({0, r0 / denom});

  // Metrics are plain branches here: the solver is sequential and the
  // recording sits outside the sweep itself.
  obs::MetricsRegistry* const metrics = opts.metrics;
  if (metrics != nullptr) {
    metrics->set_actor_kind("solver");
    metrics->reset(1, static_cast<std::size_t>(opts.max_iterations) + 8);
  }
  WallTimer timer;

  for (index_t k = 1; k <= opts.max_iterations; ++k) {
    const double t0_us = metrics != nullptr ? timer.seconds() * 1e6 : 0.0;
    sweep(result.x, r);
    a.residual(result.x, b, r);
    if (metrics != nullptr) {
      const double t1_us = timer.seconds() * 1e6;
      obs::ActorSlot& s = metrics->actor(0);
      s.owner.assert_held();  // single-threaded solver: it owns its slot
      s.add(obs::Counter::kIterations);
      s.add(obs::Counter::kRelaxations, static_cast<std::uint64_t>(n));
      s.record(obs::Hist::kIterationUs,
               static_cast<std::uint64_t>(t1_us - t0_us));
      s.span(obs::TraceKind::kIteration, t0_us, t1_us, k);
    }
    const double rel = residual_norm(r, opts.norm) / denom;
    result.iterations = k;
    if (k % opts.record_every == 0) result.history.push_back({k, rel});
    if (rel <= opts.tolerance) {
      if (k % opts.record_every != 0) result.history.push_back({k, rel});
      result.converged = true;
      break;
    }
    if (!std::isfinite(rel)) break;  // diverged past double range
  }
  if (metrics != nullptr) {
    obs::ActorSlot& s = metrics->actor(0);
    s.owner.assert_held();  // single-threaded solver: it owns its slot
    s.span(obs::TraceKind::kSolve, 0.0, timer.seconds() * 1e6,
           result.iterations);
  }
  result.final_rel_residual = result.history.back().rel_residual;
  return result;
}

}  // namespace

Vector inverse_diagonal(const CsrMatrix& a) {
  Vector d = a.diagonal();
  for (std::size_t i = 0; i < d.size(); ++i) {
    AJAC_CHECK_MSG(d[i] != 0.0, "zero diagonal at row " << i);
    d[i] = 1.0 / d[i];
  }
  return d;
}

SolveResult jacobi(const CsrMatrix& a, const Vector& b, const Vector& x0,
                   const SolveOptions& opts) {
  return weighted_jacobi(a, b, x0, 1.0, opts);
}

SolveResult weighted_jacobi(const CsrMatrix& a, const Vector& b,
                            const Vector& x0, double omega,
                            const SolveOptions& opts) {
  const Vector inv_d = inverse_diagonal(a);
  const index_t n = a.num_rows();
  return iterate(a, b, x0, opts, [&, omega](Vector& x, Vector& r) {
    // r holds b - A x from the previous residual computation.
    for (index_t i = 0; i < n; ++i) x[i] += omega * inv_d[i] * r[i];
  });
}

SolveResult gauss_seidel(const CsrMatrix& a, const Vector& b, const Vector& x0,
                         const SolveOptions& opts) {
  return sor(a, b, x0, 1.0, opts);
}

SolveResult sor(const CsrMatrix& a, const Vector& b, const Vector& x0,
                double omega, const SolveOptions& opts) {
  const Vector inv_d = inverse_diagonal(a);
  const index_t n = a.num_rows();
  return iterate(a, b, x0, opts, [&, omega](Vector& x, Vector& /*r*/) {
    const auto row_ptr = a.row_ptr();
    const auto col_idx = a.col_idx();
    const auto values = a.values();
    for (index_t i = 0; i < n; ++i) {
      double ri = b[i];
      for (index_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
        ri -= values[p] * x[col_idx[p]];
      }
      x[i] += omega * inv_d[i] * ri;
    }
  });
}

SolveResult ssor(const CsrMatrix& a, const Vector& b, const Vector& x0,
                 double omega, const SolveOptions& opts) {
  const Vector inv_d = inverse_diagonal(a);
  const index_t n = a.num_rows();
  return iterate(a, b, x0, opts, [&, omega](Vector& x, Vector& /*r*/) {
    const auto row_ptr = a.row_ptr();
    const auto col_idx = a.col_idx();
    const auto values = a.values();
    auto relax_row = [&](index_t i) {
      double ri = b[i];
      for (index_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
        ri -= values[p] * x[col_idx[p]];
      }
      x[i] += omega * inv_d[i] * ri;
    };
    for (index_t i = 0; i < n; ++i) relax_row(i);
    for (index_t i = n - 1; i >= 0; --i) relax_row(i);
  });
}

SolveResult gauss_seidel_backward(const CsrMatrix& a, const Vector& b,
                                  const Vector& x0, const SolveOptions& opts) {
  const Vector inv_d = inverse_diagonal(a);
  const index_t n = a.num_rows();
  return iterate(a, b, x0, opts, [&](Vector& x, Vector& /*r*/) {
    const auto row_ptr = a.row_ptr();
    const auto col_idx = a.col_idx();
    const auto values = a.values();
    for (index_t i = n - 1; i >= 0; --i) {
      double ri = b[i];
      for (index_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
        ri -= values[p] * x[col_idx[p]];
      }
      x[i] += inv_d[i] * ri;
    }
  });
}

SolveResult multicolor_gauss_seidel(const CsrMatrix& a, const Vector& b,
                                    const Vector& x0,
                                    const std::vector<index_t>& colors,
                                    index_t num_colors,
                                    const SolveOptions& opts) {
  AJAC_CHECK(colors.size() == static_cast<std::size_t>(a.num_rows()));
  AJAC_CHECK(num_colors >= 1);
  const Vector inv_d = inverse_diagonal(a);
  std::vector<std::vector<index_t>> by_color(
      static_cast<std::size_t>(num_colors));
  for (index_t i = 0; i < a.num_rows(); ++i) {
    AJAC_CHECK(colors[i] >= 0 && colors[i] < num_colors);
    by_color[colors[i]].push_back(i);
  }
  return iterate(a, b, x0, opts, [&](Vector& x, Vector& /*r*/) {
    for (const auto& rows : by_color) {
      // Rows of one color are independent: Jacobi-update them against the
      // current x (additive within the color, multiplicative across).
      const auto row_ptr = a.row_ptr();
      const auto col_idx = a.col_idx();
      const auto values = a.values();
      for (index_t i : rows) {
        double ri = b[i];
        for (index_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
          ri -= values[p] * x[col_idx[p]];
        }
        x[i] += inv_d[i] * ri;
      }
    }
  });
}

SolveResult inexact_block_jacobi(const CsrMatrix& a, const Vector& b,
                                 const Vector& x0,
                                 const std::vector<index_t>& block_starts,
                                 index_t inner_sweeps,
                                 const SolveOptions& opts) {
  AJAC_CHECK(block_starts.size() >= 2);
  AJAC_CHECK(block_starts.front() == 0);
  AJAC_CHECK(block_starts.back() == a.num_rows());
  AJAC_CHECK(inner_sweeps >= 1);
  const Vector inv_d = inverse_diagonal(a);
  const auto num_blocks = static_cast<index_t>(block_starts.size()) - 1;

  return iterate(a, b, x0, opts, [&](Vector& x, Vector& /*r*/) {
    // All blocks read the same pre-sweep state (additive across blocks):
    // snapshot x, run GS inside each block against the snapshot's
    // off-block values, then commit.
    const Vector snapshot = x;
    for (index_t blk = 0; blk < num_blocks; ++blk) {
      const index_t lo = block_starts[blk];
      const index_t hi = block_starts[blk + 1];
      AJAC_CHECK(lo <= hi);
      // Local copy of this block, iterated against the global snapshot.
      Vector local(snapshot.begin() + lo, snapshot.begin() + hi);
      for (index_t sweep = 0; sweep < inner_sweeps; ++sweep) {
        for (index_t i = lo; i < hi; ++i) {
          double ri = b[i];
          const auto cols = a.row_cols(i);
          const auto vals = a.row_values(i);
          for (std::size_t p = 0; p < cols.size(); ++p) {
            const index_t j = cols[p];
            const double xj =
                (j >= lo && j < hi) ? local[j - lo] : snapshot[j];
            ri -= vals[p] * xj;
          }
          local[i - lo] += inv_d[i] * ri;
        }
      }
      std::copy(local.begin(), local.end(), x.begin() + lo);
    }
  });
}

}  // namespace ajac::solvers
