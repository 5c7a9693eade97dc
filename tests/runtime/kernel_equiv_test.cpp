// Differential kernel-equivalence suite for the shared-memory data planes.
//
// The blocked kernels (KernelKind::kBlocked, the default) are checked
// against oracles outside the runtime:
//   - fixed-iteration runs at one thread and synchronous runs at any thread
//     count against the sequential solvers (solvers::jacobi, and
//     solvers::gauss_seidel for the in-place local sweep): BlockedCsr keeps
//     each row's CSR entry order, so per-row accumulation is the same
//     sequence of operations and the commit the same `x + inv_diag * r`;
//   - tolerance-terminated, traced and fault-injected runs at one thread
//     against the 1-agent asynchronous mesh (mesh::solve_mesh), which
//     stages and commits rows in CSR order on the same termination board,
//     fault schedule and polish — so iteration counts, the verified stop,
//     polish sweeps, per-row read versions and fault logs must match too;
//   - bit flips, which the mesh rejects, against a sequential Jacobi loop
//     in this file that corrupts the entry the FaultClock picks.
// kSellCS is checked against kBlocked. Comparisons are on the raw bit
// patterns, not on values, so a -0.0/+0.0 or NaN discrepancy also fails.

#include "ajac/runtime/shared_jacobi.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "ajac/fault/fault_plan.hpp"
#include "ajac/gen/fd.hpp"
#include "ajac/gen/fe.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/mesh/mesh_jacobi.hpp"
#include "ajac/model/trace.hpp"
#include "ajac/obs/metrics.hpp"
#include "ajac/solvers/stationary.hpp"
#include "ajac/sparse/csr.hpp"
#include "test_helpers.hpp"

namespace ajac::runtime {
namespace {

struct NamedMatrix {
  const char* name;
  CsrMatrix a;
};

/// The three matrix families the paper's shared-memory experiments use:
/// FD 5-point and 7-point stencils plus the (not weakly diagonally
/// dominant) unstructured FE matrix, at sizes small enough to sweep many
/// configurations.
std::vector<NamedMatrix> test_matrices() {
  std::vector<NamedMatrix> out;
  out.push_back({"fd5pt_12x12", gen::fd_laplacian_2d(12, 12)});
  out.push_back({"fd7pt_5x5x5", gen::fd_laplacian_3d(5, 5, 5)});
  gen::FeMeshOptions fe;
  fe.nx = 8;
  fe.ny = 8;
  out.push_back({"fe_8x8", gen::fe_laplacian_2d(fe)});
  return out;
}

void expect_bitwise_equal(const Vector& actual, const Vector& oracle) {
  ASSERT_EQ(actual.size(), oracle.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(actual[i]),
              std::bit_cast<std::uint64_t>(oracle[i]))
        << "bit pattern diverged at row " << i << ": " << actual[i]
        << " vs " << oracle[i];
  }
}

/// `iters` sweeps of the sequential solver `method` (tolerance 0).
template <class Method>
Vector sequential_sweeps(const gen::LinearProblem& p, index_t iters,
                         Method method) {
  solvers::SolveOptions so;
  so.tolerance = 0.0;
  so.max_iterations = iters;
  return method(p.a, p.b, p.x0, so).x;
}

/// The 1-agent asynchronous mesh with the shared run's termination options.
mesh::MeshResult one_agent_mesh(const gen::LinearProblem& p,
                                const SharedOptions& opts) {
  mesh::MeshOptions mo;
  mo.num_agents = 1;
  mo.tolerance = opts.tolerance;
  mo.max_iterations = opts.max_iterations;
  mo.record_history = false;
  mo.record_trace = opts.record_trace;
  mo.final_polish = opts.final_polish;
  mo.fault_plan = opts.fault_plan;
  return mesh::solve_mesh(p.a, p.b, p.x0, mo);
}

/// A 1-thread blocked solve must be the 1-agent mesh down to the bit
/// patterns and the bookkeeping.
void expect_matches_one_agent_mesh(const gen::LinearProblem& p,
                                   const SharedOptions& opts) {
  ASSERT_EQ(opts.num_threads, 1);
  const SharedResult blocked = solve_shared(p.a, p.b, p.x0, opts);
  const mesh::MeshResult mesh = one_agent_mesh(p, opts);

  expect_bitwise_equal(blocked.x, mesh.x);
  EXPECT_EQ(blocked.converged, mesh.converged);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(blocked.final_rel_residual_1),
            std::bit_cast<std::uint64_t>(mesh.final_rel_residual_1));
  EXPECT_EQ(blocked.iterations_per_thread, mesh.iterations_per_agent);
  EXPECT_EQ(blocked.total_relaxations, mesh.total_relaxations);
  EXPECT_EQ(blocked.polish_sweeps, mesh.polish_sweeps);
  EXPECT_EQ(blocked.fault_events, mesh.fault_events);
}

/// A fixed-iteration (tolerance 0) blocked solve must be `iters` sweeps of
/// sequential Jacobi.
void expect_matches_jacobi(const gen::LinearProblem& p,
                           const SharedOptions& opts) {
  ASSERT_EQ(opts.tolerance, 0.0);
  const SharedResult blocked = solve_shared(p.a, p.b, p.x0, opts);
  expect_bitwise_equal(
      blocked.x, sequential_sweeps(p, opts.max_iterations, solvers::jacobi));
  for (const index_t it : blocked.iterations_per_thread) {
    EXPECT_EQ(it, opts.max_iterations);
  }
  EXPECT_EQ(blocked.total_relaxations, opts.max_iterations * p.a.num_rows());
  EXPECT_EQ(blocked.polish_sweeps, 0);
}

TEST(KernelEquiv, SingleThreadBitwiseIdentical) {
  // Tolerance-terminated: the stop iteration, the verified stop and the
  // polish sweeps must match the mesh's too.
  for (auto& [name, a] : test_matrices()) {
    SCOPED_TRACE(name);
    const auto p =
        gen::make_problem(name, std::move(a), ajac::testing::test_seed(71));
    SharedOptions opts;
    opts.num_threads = 1;
    opts.tolerance = 1e-8;
    opts.max_iterations = 40000;
    opts.record_history = false;
    expect_matches_one_agent_mesh(p, opts);
  }
}

TEST(KernelEquiv, SingleThreadGaussSeidelBitwiseIdentical) {
  // The in-place local sweep at one thread is forward Gauss-Seidel: each
  // row reads the rows above it already relaxed in this sweep.
  for (auto& [name, a] : test_matrices()) {
    SCOPED_TRACE(name);
    const auto p =
        gen::make_problem(name, std::move(a), ajac::testing::test_seed(73));
    for (const index_t iters : {1, 2, 5, 17, 64}) {
      SCOPED_TRACE(::testing::Message() << "iterations " << iters);
      SharedOptions opts;
      opts.num_threads = 1;
      opts.tolerance = 0.0;
      opts.max_iterations = iters;
      opts.record_history = false;
      opts.local_gauss_seidel = true;
      const SharedResult gs = solve_shared(p.a, p.b, p.x0, opts);
      expect_bitwise_equal(gs.x,
                           sequential_sweeps(p, iters, solvers::gauss_seidel));
      EXPECT_EQ(gs.total_relaxations, iters * p.a.num_rows());
    }
  }
}

TEST(KernelEquiv, SingleThreadFixedIterationsBitwiseIdentical) {
  // Pure iteration-count runs (tolerance 0) avoid any residual-check
  // interaction: the comparison is exactly N lockstep sweeps.
  for (auto& [name, a] : test_matrices()) {
    SCOPED_TRACE(name);
    const auto p =
        gen::make_problem(name, std::move(a), ajac::testing::test_seed(75));
    for (const index_t iters : {1, 2, 5, 17, 64}) {
      SCOPED_TRACE(::testing::Message() << "iterations " << iters);
      SharedOptions opts;
      opts.num_threads = 1;
      opts.tolerance = 0.0;
      opts.max_iterations = iters;
      opts.record_history = false;
      expect_matches_jacobi(p, opts);
    }
  }
}

TEST(KernelEquiv, SingleThreadTracedRunsMatchPerRow) {
  // Traced mode: solutions must stay bitwise identical and every row's
  // sequence of (source_row, version) reads must match. The blocked path
  // interleaves rows interior-first, so cross-row event order is allowed
  // to differ (the trace contract only orders events of the same row).
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(9, 9),
                                   ajac::testing::test_seed(77));
  SharedOptions opts;
  opts.num_threads = 1;
  opts.tolerance = 0.0;
  opts.max_iterations = 12;
  opts.record_history = false;
  opts.record_trace = true;

  const SharedResult blocked = solve_shared(p.a, p.b, p.x0, opts);
  const mesh::MeshResult mesh = one_agent_mesh(p, opts);

  expect_bitwise_equal(blocked.x, mesh.x);
  ASSERT_TRUE(blocked.trace.has_value());
  ASSERT_TRUE(mesh.trace.has_value());
  ASSERT_EQ(blocked.trace->events().size(), mesh.trace->events().size());

  using PerRow = std::map<index_t, std::vector<model::RelaxationRead>>;
  const auto by_row = [](const model::RelaxationTrace& t) {
    PerRow rows;
    for (const auto& e : t.events()) {
      auto& seq = rows[e.row];
      seq.insert(seq.end(), e.reads.begin(), e.reads.end());
    }
    return rows;
  };
  const PerRow blocked_rows = by_row(*blocked.trace);
  const PerRow mesh_rows = by_row(*mesh.trace);
  ASSERT_EQ(blocked_rows.size(), mesh_rows.size());
  for (const auto& [row, reads] : mesh_rows) {
    const auto it = blocked_rows.find(row);
    ASSERT_NE(it, blocked_rows.end()) << "row " << row << " missing";
    ASSERT_EQ(it->second.size(), reads.size()) << "row " << row;
    for (std::size_t k = 0; k < reads.size(); ++k) {
      EXPECT_EQ(it->second[k].source_row, reads[k].source_row)
          << "row " << row << " read " << k;
      EXPECT_EQ(it->second[k].version, reads[k].version)
          << "row " << row << " read " << k;
    }
  }
}

TEST(KernelEquiv, MultiThreadSynchronousZeroUlp) {
  // With barriers, x is frozen during step 1 for every thread, so every
  // block reads the previous sweep's values — the whole run must be
  // sequential Jacobi to 0 ULP regardless of thread count.
  for (auto& [name, a] : test_matrices()) {
    SCOPED_TRACE(name);
    const auto p =
        gen::make_problem(name, std::move(a), ajac::testing::test_seed(79));
    for (const index_t threads : {2, 3, 4}) {
      for (const index_t iters : {1, 7, 40}) {
        SCOPED_TRACE(::testing::Message()
                     << threads << " threads, " << iters << " iterations");
        SharedOptions opts;
        opts.num_threads = threads;
        opts.synchronous = true;
        opts.tolerance = 0.0;
        opts.max_iterations = iters;
        opts.record_history = false;
        expect_matches_jacobi(p, opts);
      }
    }
  }
}

/// Sequential Jacobi under the plan's bit flips at one actor (actor 0):
/// in sweep `it`, row i reads the one off-diagonal entry the FaultClock
/// picks with one bit flipped — the decision coordinates the runtime's
/// injector documents (solve_hooks.hpp). Returns x and the expected log.
std::pair<Vector, fault::FaultLog> jacobi_with_bit_flips(
    const gen::LinearProblem& p, const fault::FaultPlan& plan,
    index_t iters) {
  const CsrMatrix& a = p.a;
  const index_t n = a.num_rows();
  const Vector inv_d = solvers::inverse_diagonal(a);
  const fault::FaultClock clock(plan.seed);
  Vector x = p.x0;
  Vector r(x.size());
  fault::FaultLog log;
  for (index_t it = 0; it < iters; ++it) {
    const auto uit = static_cast<std::uint64_t>(it);
    for (index_t i = 0; i < n; ++i) {
      const auto [cols, vals] = a.row(i);
      const auto row = static_cast<std::uint64_t>(i);
      std::size_t flipped = cols.size();  // none
      double flipped_value = 0.0;
      for (const fault::BitFlipSpec& s : plan.bit_flips) {
        if (s.actor != 0 && s.actor != -1) continue;
        if (it < s.first_iteration || it >= s.last_iteration) continue;
        if (!clock.bernoulli(s.probability,
                             fault::FaultClock::kBitFlipTrigger, 0, uit, row)) {
          continue;
        }
        std::vector<std::size_t> off_diag;
        for (std::size_t q = 0; q < cols.size(); ++q) {
          if (cols[q] != i) off_diag.push_back(q);
        }
        if (off_diag.empty()) continue;
        flipped = off_diag[clock.pick(off_diag.size(),
                                      fault::FaultClock::kBitFlipEntry, 0,
                                      uit, row)];
        const int bit =
            s.bit >= 0 ? s.bit
                       : static_cast<int>(clock.pick(
                             52, fault::FaultClock::kBitFlipBit, 0, uit, row));
        flipped_value = fault::flip_bit(vals[flipped], bit);
        log.push_back({fault::FaultKind::kBitFlip, 0, it, i, bit});
        break;
      }
      double acc = p.b[static_cast<std::size_t>(i)];
      for (std::size_t q = 0; q < cols.size(); ++q) {
        const double aij = q == flipped ? flipped_value : vals[q];
        acc -= aij * x[static_cast<std::size_t>(cols[q])];
      }
      r[static_cast<std::size_t>(i)] = acc;
    }
    for (index_t i = 0; i < n; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      x[ui] = x[ui] + inv_d[ui] * r[ui];
    }
  }
  fault::canonicalize(log);
  return {x, log};
}

TEST(KernelEquiv, SingleThreadFaultPathsBitwiseIdentical) {
  // Fault decisions are pure FaultClock hashes of logical coordinates, and
  // the blocked layout preserves entry indexing within rows, so the runs
  // must match their oracles bitwise including the injected-event logs.
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(10, 10),
                                   ajac::testing::test_seed(81));
  SharedOptions opts;
  opts.num_threads = 1;
  opts.tolerance = 0.0;
  opts.max_iterations = 60;
  opts.record_history = false;

  {
    SCOPED_TRACE("crash with state reset + stale window vs 1-agent mesh");
    auto plan = std::make_shared<fault::FaultPlan>();
    plan->seed = ajac::testing::test_seed(83);
    plan->crashes.push_back({.actor = 0,
                             .crash_iteration = 6,
                             .dead_seconds = 1e-6,
                             .reset_state_on_recovery = true});
    plan->stale_reads.push_back({.actor = -1, .period = 8, .duty = 0.5});
    opts.fault_plan = plan;
    expect_matches_one_agent_mesh(p, opts);
  }
  {
    SCOPED_TRACE("bit flips vs sequential Jacobi with the same flips");
    auto plan = std::make_shared<fault::FaultPlan>();
    plan->seed = ajac::testing::test_seed(83);
    plan->bit_flips.push_back({.actor = -1, .probability = 0.02, .bit = 12});
    opts.fault_plan = plan;
    const SharedResult blocked = solve_shared(p.a, p.b, p.x0, opts);
    const auto [x, log] =
        jacobi_with_bit_flips(p, *plan, opts.max_iterations);
    expect_bitwise_equal(blocked.x, x);
    EXPECT_FALSE(blocked.fault_events.empty());
    EXPECT_EQ(blocked.fault_events, log);
  }
}

TEST(KernelEquiv, MetricsRegistryDoesNotPerturbBlockedResults) {
  // Attaching a registry must not change a single bit of the blocked
  // solve.
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(10, 10),
                                   ajac::testing::test_seed(85));
  SharedOptions opts;
  opts.num_threads = 1;
  opts.tolerance = 1e-8;
  opts.max_iterations = 40000;
  opts.record_history = false;
  opts.kernel = KernelKind::kBlocked;
  const SharedResult plain = solve_shared(p.a, p.b, p.x0, opts);

  obs::MetricsRegistry reg;
  opts.metrics = &reg;
  const SharedResult instrumented = solve_shared(p.a, p.b, p.x0, opts);

  expect_bitwise_equal(instrumented.x, plain.x);
  const obs::MetricsSnapshot snap = reg.snapshot();
  const auto local =
      snap.totals[static_cast<std::size_t>(obs::Counter::kLocalReads)];
  const auto ghost =
      snap.totals[static_cast<std::size_t>(obs::Counter::kGhostReads)];
  // One thread owns every row: all entries resolve from the mirror.
  EXPECT_GT(local, 0U);
  EXPECT_EQ(ghost, 0U);
  EXPECT_EQ(local + ghost,
            static_cast<std::uint64_t>(p.a.num_nonzeros()) *
                snap.totals[static_cast<std::size_t>(obs::Counter::kIterations)]);
}

/// Run the same problem through kSellCS and kBlocked and require bitwise
/// agreement — the contract of the bandwidth-engineered data plane with
/// fp64 ghosts whenever the reads see the same values (one thread, or
/// synchronous mode): the SELL slice accumulation consumes each row's
/// entries in CSR order and the once-per-iteration ghost refresh reads
/// exactly what the per-entry blocked reads would.
void expect_sellcs_matches_blocked(const gen::LinearProblem& p,
                                   SharedOptions opts) {
  opts.kernel = KernelKind::kSellCS;
  const SharedResult sell = solve_shared(p.a, p.b, p.x0, opts);
  opts.kernel = KernelKind::kBlocked;
  const SharedResult blocked = solve_shared(p.a, p.b, p.x0, opts);

  expect_bitwise_equal(sell.x, blocked.x);
  EXPECT_EQ(sell.converged, blocked.converged);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sell.final_rel_residual_1),
            std::bit_cast<std::uint64_t>(blocked.final_rel_residual_1));
  EXPECT_EQ(sell.iterations_per_thread, blocked.iterations_per_thread);
  EXPECT_EQ(sell.total_relaxations, blocked.total_relaxations);
  EXPECT_EQ(sell.polish_sweeps, blocked.polish_sweeps);
}

TEST(KernelEquiv, SellCSSingleThreadBitwiseIdentical) {
  for (auto& [name, a] : test_matrices()) {
    SCOPED_TRACE(name);
    const auto p =
        gen::make_problem(name, std::move(a), ajac::testing::test_seed(87));
    SharedOptions opts;
    opts.num_threads = 1;
    opts.tolerance = 1e-8;
    opts.max_iterations = 40000;
    opts.record_history = false;
    expect_sellcs_matches_blocked(p, opts);
  }
}

TEST(KernelEquiv, SellCSSingleThreadFixedIterationsBitwiseIdentical) {
  for (auto& [name, a] : test_matrices()) {
    SCOPED_TRACE(name);
    const auto p =
        gen::make_problem(name, std::move(a), ajac::testing::test_seed(89));
    for (const index_t iters : {1, 2, 5, 17, 64}) {
      SCOPED_TRACE(::testing::Message() << "iterations " << iters);
      SharedOptions opts;
      opts.num_threads = 1;
      opts.tolerance = 0.0;
      opts.max_iterations = iters;
      opts.record_history = false;
      expect_sellcs_matches_blocked(p, opts);
    }
  }
}

TEST(KernelEquiv, SellCSMultiThreadSynchronousZeroUlp) {
  // With barriers the commits of iteration k all complete before any
  // thread's iteration k+1 ghost refresh, so the dense buffer holds
  // exactly the frozen x the blocked per-entry reads would see — the runs
  // must agree to 0 ULP at any thread count, SELL row reordering included.
  for (auto& [name, a] : test_matrices()) {
    SCOPED_TRACE(name);
    const auto p =
        gen::make_problem(name, std::move(a), ajac::testing::test_seed(91));
    for (const index_t threads : {2, 3, 4}) {
      for (const index_t iters : {1, 7, 40}) {
        SCOPED_TRACE(::testing::Message()
                     << threads << " threads, " << iters << " iterations");
        SharedOptions opts;
        opts.num_threads = threads;
        opts.synchronous = true;
        opts.tolerance = 0.0;
        opts.max_iterations = iters;
        opts.record_history = false;
        expect_sellcs_matches_blocked(p, opts);
      }
    }
  }
}

TEST(KernelEquiv, SellCSNnzPartitionSynchronousZeroUlp) {
  // Same contract on nnz-balanced blocks (the facade's default for the
  // partition-aware kernels): unequal block sizes change which rows are
  // interior vs boundary, not any row's accumulation order.
  for (auto& [name, a] : test_matrices()) {
    SCOPED_TRACE(name);
    const auto p =
        gen::make_problem(name, std::move(a), ajac::testing::test_seed(93));
    SharedOptions opts;
    opts.num_threads = 3;
    opts.synchronous = true;
    opts.tolerance = 0.0;
    opts.max_iterations = 25;
    opts.record_history = false;
    opts.partition = partition::nnz_balanced_partition(p.a, opts.num_threads);
    expect_sellcs_matches_blocked(p, opts);
  }
}

TEST(KernelEquiv, SellCSFp32GhostsConvergeWithFp64Termination) {
  // fp32 ghost publication perturbs only what neighbours read — the
  // verified stop recomputes a fresh fp64 residual from the authoritative
  // x, so a converged=true result certifies the fp64 tolerance exactly as
  // on the other kernels. The rounding does put a floor under the
  // achievable residual (boundary rows re-read fp32-rounded neighbours
  // every sweep, so the iterate stalls around eps_fp32 ~ 6e-8 relative);
  // the tolerance here sits safely above that floor. Asynchronous
  // multi-thread runs, several seeds.
  for (const int salt : {95, 97, 99}) {
    SCOPED_TRACE(::testing::Message() << "salt " << salt);
    const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(24, 24),
                                     ajac::testing::test_seed(salt));
    SharedOptions opts;
    opts.num_threads = 4;
    opts.tolerance = 1e-5;
    opts.max_iterations = 200000;
    opts.record_history = false;
    opts.yield = true;
    opts.kernel = KernelKind::kSellCS;
    opts.ghost_precision = GhostPrecision::kFp32;
    const SharedResult r = solve_shared(p.a, p.b, p.x0, opts);
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.final_rel_residual_1, opts.tolerance);
  }
}

TEST(KernelEquiv, SellCSMetricsCountGhostRefreshes) {
  // The registry must not perturb the solve, and the kSellCS-specific
  // counter must tally exactly one buffer refresh per local iteration.
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(10, 10),
                                   ajac::testing::test_seed(101));
  SharedOptions opts;
  opts.num_threads = 1;
  opts.tolerance = 0.0;
  opts.max_iterations = 30;
  opts.record_history = false;
  opts.kernel = KernelKind::kSellCS;
  const SharedResult plain = solve_shared(p.a, p.b, p.x0, opts);

  obs::MetricsRegistry reg;
  opts.metrics = &reg;
  const SharedResult instrumented = solve_shared(p.a, p.b, p.x0, opts);

  expect_bitwise_equal(instrumented.x, plain.x);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(
      snap.totals[static_cast<std::size_t>(obs::Counter::kGhostRefreshes)],
      snap.totals[static_cast<std::size_t>(obs::Counter::kIterations)]);
}

}  // namespace
}  // namespace ajac::runtime
