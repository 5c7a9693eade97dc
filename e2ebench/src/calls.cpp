#include "calls.hpp"

#include "ajac/mesh/mesh_jacobi.hpp"
#include "ajac/partition/partition.hpp"
#include "ajac/solvers/krylov.hpp"
#include "ajac/util/timer.hpp"
#include "check.hpp"

namespace e2e {

ajac::SolveConfig facade_config(double tol, bool synchronous) {
  ajac::SolveConfig cfg;
  cfg.backend = ajac::Backend::kSharedMemory;
  cfg.parallelism = kThreads;
  cfg.tolerance = tol;
  cfg.synchronous = synchronous;
  return cfg;
}

ajac::runtime::SharedOptions shared_options(const ajac::CsrMatrix& a,
                                            double tol, bool synchronous) {
  const ajac::SolveConfig cfg = facade_config(tol, synchronous);
  ajac::runtime::SharedOptions opts;
  opts.num_threads = cfg.parallelism;
  opts.synchronous = cfg.synchronous;
  opts.tolerance = cfg.tolerance;
  opts.max_iterations = cfg.max_iterations;
  opts.record_history = false;
  opts.kernel = cfg.shared_kernel;
  opts.ghost_precision = cfg.ghost_precision;
  opts.policy = cfg.policy;
  opts.weight_refresh = cfg.weight_refresh;
  opts.policy_seed = cfg.seed;
  opts.partition = ajac::partition::nnz_balanced_partition(a, cfg.parallelism);
  return opts;
}

ajac::mesh::MeshOptions mesh_options(double tol) {
  const ajac::SolveConfig cfg = facade_config(tol, false);
  ajac::mesh::MeshOptions opts;
  opts.num_agents = cfg.parallelism;
  opts.tolerance = cfg.tolerance;
  opts.max_iterations = cfg.max_iterations;
  opts.record_history = false;
  return opts;
}

ajac::solvers::CgOptions pcg_options(double tol) {
  ajac::solvers::CgOptions opts;
  opts.tolerance = tol * kPcgTolFactor;
  opts.jacobi_preconditioner = true;
  return opts;
}

bool passes(const ajac::CsrMatrix& a, const Column& c,
            std::span<const double> x, double tol) {
  return check_solution(a, c.b, c.x0, x, c.x_star, tol).pass;
}

OpOutcome run_op(Op op, const Sample& s, double tol, Tally& tally) {
  OpOutcome out;
  switch (op) {
    case Op::kAsync:
    case Op::kSync: {
      const ajac::SolveConfig cfg = facade_config(tol, op == Op::kSync);
      for (const Column& c : s.cols) {
        ajac::WallTimer t;
        const ajac::Solution sol = ajac::solve(s.a, c.b, c.x0, cfg);
        const double wall = t.seconds();
        out.wall_s += wall;
        out.setup_s += wall - sol.seconds;
        tally.add(sol.converged && passes(s.a, c, sol.x, tol));
      }
      break;
    }
    case Op::kPcg: {
      const ajac::solvers::CgOptions opts = pcg_options(tol);
      for (const Column& c : s.cols) {
        ajac::WallTimer t;
        const ajac::solvers::CgResult r =
            ajac::solvers::conjugate_gradient(s.a, c.b, c.x0, opts);
        out.wall_s += t.seconds();
        tally.add(r.converged && passes(s.a, c, r.x, tol));
      }
      break;
    }
    case Op::kMesh: {
      const ajac::mesh::MeshOptions opts = mesh_options(tol);
      for (const Column& c : s.cols) {
        ajac::WallTimer t;
        const ajac::mesh::MeshResult r =
            ajac::mesh::solve_mesh(s.a, c.b, c.x0, opts);
        const double wall = t.seconds();
        out.wall_s += wall;
        out.setup_s += wall - r.seconds;
        tally.add(r.converged && passes(s.a, c, r.x, tol));
      }
      break;
    }
    case Op::kBatch:
    case Op::kBatchSync: {
      const auto k = static_cast<ajac::index_t>(s.cols.size());
      ajac::MultiVector b;
      ajac::MultiVector x0;
      pack(s.cols, s.a.num_rows(), b, x0);
      ajac::SolveConfig cfg = facade_config(tol, op == Op::kBatchSync);
      cfg.num_rhs = k;
      ajac::WallTimer t;
      const ajac::BatchSolution sol = ajac::solve_batch(s.a, b, x0, cfg);
      const double wall = t.seconds();
      out.wall_s += wall;
      out.setup_s += wall - sol.seconds;
      bool ok = true;
      for (ajac::index_t c = 0; c < k; ++c) {
        ok = ok && sol.converged[static_cast<std::size_t>(c)] &&
             passes(s.a, s.cols[static_cast<std::size_t>(c)], sol.x.column(c),
                    tol);
      }
      tally.add(ok);
      break;
    }
  }
  return out;
}

}  // namespace e2e
