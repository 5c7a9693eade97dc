#pragma once
// The shared-memory Jacobi worker (paper Sec. V), written once for both
// public calls. solve_shared runs it on the scalar lane (shared_jacobi.cpp)
// and solve_shared_batch on the batch lane (shared_batch.cpp); not
// installed, like solve_hooks.hpp.
//
// This file owns the shared-memory side of the control plane: the
// prologue (entry checks, partition, inv_diag, plan validation, metrics
// reset, BlockedCsr/SELL builds, the stream's begin_run), the loop around
// the termination board (freeze mask, park at the iteration cap), the
// sampled-policy weight refresh, the beacons, the fault-log merge, and the
// one Faults x Metrics x Stream dispatch ladder. The board, the
// metrics recorders and the serial verification with polish are the ones
// solve_mesh runs too (ajac/runtime/control_plane.hpp). A single
// right-hand side is the k = 1 case of the per-column protocol.
//
// A lane policy supplies everything whose shape depends on the vector type:
//   Dense / Shared / Result   Vector, SharedVector, SharedResult (scalar) or
//                             MultiVector, SharedMultiVector,
//                             SharedBatchResult (batch);
//   check_inputs/options      shape checks and the lane's feature rejections;
//   width / values            the column count and the raw stored values;
//   make_shared / make_dense  vectors of the lane's shape (k columns), and
//   snapshot                  the final iterate copied out of the shared x;
//   residual                  b - A x and its per-column 1-norms (initial
//                             residual and the serial verification);
//   with_column               hands polish one column as plain vectors;
//   beacon / beacon_scale     the streamed residual value and its scale;
//   count_lanes               the batch occupancy metrics (no-op on scalar);
//   make_result               RunRecord -> the public result struct;
//   Worker<Faults, Metrics>   the per-thread data plane over the solve's
//                             BlockedCsr (Setup::blocked, always built):
//                             own-block mirror, scratch, and the kernels of
//                             blocked_kernels.hpp — relax (step 1),
//                             relax_drawn (one sampled row, committed in
//                             place), commit (step 2, masked per column),
//                             scan (step 3's racy residual norm), and
//                             true_residual (the weighted-policy snapshot).
//
// The bitwise contract — column c of a synchronous (or 1-thread
// asynchronous) batch equals the single-RHS solve of column c — rests on
// three invariants the two lanes share:
//   1. Per lane, every arithmetic expression (residual accumulation in CSR
//      entry order, `x + inv_diag * r`, the ascending-row residual-norm sum,
//      the verify scan, the polish sweep) is the same expression evaluated
//      on the same values in the same order.
//   2. A column freezes at exactly the iteration boundary where its own
//      single-RHS run would have left the loop: the verified stop of
//      iteration m masks the column's commits from iteration m+1 on (frozen
//      lanes keep riding in the SIMD unit, republishing identical bits). On
//      the scalar lane the column's stop is the global stop, so the mask
//      never has a commit to hold back.
//   3. Frozen columns are excluded from flags, verify, and the stop
//      decision, so the remaining columns' control flow is unaffected by
//      how many neighbors already converged.

#include <omp.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "ajac/fault/fault_plan.hpp"
#include "ajac/model/trace.hpp"
#include "ajac/obs/metrics.hpp"
#include "ajac/obs/stream.hpp"
#include "ajac/partition/partition.hpp"
#include "ajac/runtime/control_plane.hpp"
#include "ajac/runtime/row_policy.hpp"
#include "ajac/runtime/shared_jacobi.hpp"
#include "ajac/runtime/shared_vector.hpp"
#include "ajac/sparse/blocked_csr.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/sell_csr.hpp"
#include "ajac/sparse/validate.hpp"
#include "ajac/solvers/stationary.hpp"
#include "ajac/util/annotate.hpp"
#include "ajac/util/check.hpp"
#include "ajac/util/timer.hpp"
#include "solve_hooks.hpp"

namespace ajac::runtime::detail {

/// What one solve's threads share read-only, built by the prologue.
template <class Lane>
struct Setup {
  const CsrMatrix& a;
  const typename Lane::Dense& b;
  const typename Lane::Dense& x0;
  const SharedOptions& opts;
  const partition::Partition& part;
  const Vector& inv_diag;
  const fault::FaultPlan* plan;  ///< null without a non-empty plan
  const BlockedCsr& blocked;     ///< one block per thread, always built
  const SellCsr* sell;           ///< kSellCS only
  SharedF32Vector* shadow;       ///< fp32 ghost publication only
};

/// The worker's outcome, handed to Lane::make_result. Per-column entries
/// hold one element per lane (one on the scalar lane).
template <class Dense>
struct RunRecord {
  Dense x;
  double seconds = 0.0;
  Verdict verdict;  ///< serial verification + polish, per column
  std::vector<index_t> stop_iteration;  ///< verified-stop iteration
  /// Row relaxations while the column was still converging.
  std::vector<index_t> relaxations_per_column;
  std::vector<index_t> iterations_per_thread;
  std::vector<std::vector<SharedHistoryPoint>> histories;  ///< per thread
  std::vector<std::vector<model::RelaxationEvent>> events;  ///< per thread
  fault::FaultLog fault_events;  ///< merged, canonical order
};

template <class Lane, class Faults, class Metrics, class Stream>
typename Lane::Result solve_impl(const Setup<Lane>& s) {
  const CsrMatrix& a = s.a;
  const SharedOptions& opts = s.opts;
  const index_t n = a.num_rows();
  const index_t k = Lane::width(s.b);
  const auto k_sz = static_cast<std::size_t>(k);
  const auto nt = static_cast<std::size_t>(opts.num_threads);

  auto x = Lane::make_shared(n, k, opts.record_trace);
  auto r = Lane::make_shared(n, k, /*traced=*/false);
  // Single-threaded setup: this thread is momentarily the sole writer of
  // both shared vectors (the workers have not been forked yet).
  x.writer_role().assert_held();
  r.writer_role().assert_held();
  x.init(s.x0);
  // The initial residual, computed once: it seeds the shared r and gives
  // the per-column norms every relative residual divides by.
  Vector r0_norm(k_sz);
  {
    typename Lane::Dense r0 = Lane::make_dense(n, k);
    Lane::residual(a, s.x0, s.b, r0, r0_norm);
    r.init(r0);
  }
  for (double& v : r0_norm) v = v > 0.0 ? v : 1.0;
  if constexpr (Stream::enabled) {
    // Telemetry denominator for the monitor's global residual estimate;
    // single-threaded setup, before any beacon of this run.
    opts.stream->set_residual_scale(Lane::beacon_scale(r0_norm));
  }

  TerminationBoard<typename Lane::Dense, typename Lane::Shared> board(
      a, s.b, x, r0_norm, opts.num_threads, opts.max_iterations,
      opts.tolerance);

  RunRecord<typename Lane::Dense> run;
  run.iterations_per_thread.assign(nt, 0);
  run.histories.resize(nt);
  run.events.resize(nt);
  std::vector<std::vector<index_t>> col_relax(nt);
  std::vector<fault::FaultLog> fault_logs(nt);

  WallTimer timer;

  // OpenMP fork/join synchronization happens inside libgomp (futexes TSan
  // cannot see); hand TSan the happens-before edges explicitly. Everything
  // crossing threads *inside* the region is std::atomic and needs nothing.
  AJAC_TSAN_RELEASE(&run);

#pragma omp parallel num_threads(static_cast<int>(opts.num_threads))
  {
    AJAC_TSAN_ACQUIRE(&run);
    const auto t = static_cast<index_t>(omp_get_thread_num());
    const auto ts = static_cast<std::size_t>(t);
    const index_t lo = s.part.part_begin(t);
    const index_t hi = s.part.part_end(t);
    const index_t rows = hi - lo;
    const double delay = opts.delay_us.empty() ? 0.0 : opts.delay_us[ts];

    // Per-iteration scratch is sized here, before the loop: the hot path
    // performs no allocation.
    std::vector<double> active(k_sz, 1.0);  ///< 1.0 = column still converging
    std::vector<double> norms(k_sz, 0.0);
    // Own-block per-column partial norms for the beacon (empty, and the
    // scan unsplit, on the null stream path).
    std::vector<double> own_norms(Stream::enabled ? k_sz : 0, 0.0);
    auto& my_col_relax = col_relax[ts];
    my_col_relax.assign(k_sz, 0);
    auto& my_history = run.histories[ts];
    if (opts.record_history) {
      // Reserve outside the timed loop: a reallocating push_back inside the
      // relaxation loop would stall this thread mid-run and perturb the
      // asynchronous interleaving being measured. Threads park once they
      // reach max_iterations, so the history is bounded by it exactly.
      my_history.reserve(static_cast<std::size_t>(opts.max_iterations));
    }

    Faults faults(a, s.x0, s.plan, t, lo, hi, x);
    Metrics metrics(opts.metrics, t, timer);
    Stream stream(opts.stream, t, timer);
    // Allocated and filled on this thread, so it first-touches its pages.
    typename Lane::template Worker<Faults, Metrics> lane(
        s, t, x, r, faults, metrics, run.events[ts]);

    // Sampled row policies: per-thread sampler (no shared state; see
    // row_policy.hpp for the draw-coordinate discipline — the same
    // (policy_seed, thread, iter, slot) on both lanes) and, when
    // instrumented, the per-row draw counts behind the row-selection-skew
    // metric. Natural order pays for neither.
    const bool sampled = is_sampled(opts.policy);
    std::optional<RowSampler> sampler;
    // Scratch for the weighted refresh: lane-max |true residual| of each
    // own row, computed in a first pass so the weight of row i can sum its
    // whole stencil (see the refresh below).
    std::vector<double> snapshot_r;
    if (sampled) {
      sampler.emplace(opts.policy, opts.policy_seed, t, lo, hi,
                      opts.weight_refresh);
      if (opts.policy == RowPolicy::kResidualWeighted) {
        snapshot_r.assign(static_cast<std::size_t>(rows), 0.0);
      }
    }
    [[maybe_unused]] std::vector<std::uint32_t> pick_counts;
    if constexpr (Metrics::enabled) {
      if (sampled) pick_counts.assign(static_cast<std::size_t>(rows), 0);
    }

    index_t iter = 0;
    [[maybe_unused]] double beacon = 0.0;
    while (!board.stopped()) {
      if (board.at_cap(iter)) {
        board.park(iter, metrics);
        continue;
      }
      if constexpr (Metrics::enabled) metrics.iteration_begin();
      if (delay > 0.0) {
        spin_wait_us(delay);
        if constexpr (Metrics::enabled) metrics.spin_wait(delay);
      }
      if constexpr (Faults::enabled) {
        faults.begin_iteration(iter);
        // A crash recovery with state reset rewrote the shared x on the own
        // rows behind the mirror; reload it before any kernel reads it.
        if (faults.consume_state_reset()) lane.refresh_own();
        if constexpr (Metrics::enabled) metrics.sync_faults(faults.schedule());
      }

      // Refresh the freeze mask. A column stop only ever goes 0 -> 1, so
      // once a thread observes a column stopped it stays stopped; in
      // synchronous mode all threads flip the mask together — the
      // alignment the bitwise contract needs.
      index_t active_cols = 0;
      for (std::size_t c = 0; c < k_sz; ++c) {
        const bool on = board.column_live(c);
        active[c] = on ? 1.0 : 0.0;
        active_cols += on ? 1 : 0;
      }

      // Step 1: residual on own rows from the shared (racy) x. All k lanes
      // are computed, frozen ones included — a frozen lane recomputes its
      // (already final) residual, which keeps the SIMD loops maskless.
      if (sampled) {
        // Sampled policies: block-size in-place relaxations of drawn rows
        // (iteration counting, termination, and relaxation totals keep
        // their natural-order meaning). The weighted sampler rebuilds its
        // prefix sum here, at the iteration boundary, in two passes: the
        // TRUE residual of every own row recomputed from an x snapshot
        // (never the published r, whose pre-update values go stale under
        // in-place draws), then the stencil-smoothed weight (|A| |r|)_i
        // over the own block — see row_policy.hpp for why both the
        // recompute and the smoothing are load-bearing. Weights read x
        // directly, bypassing fault injection: the policy stream must not
        // consume fault decisions.
        if (sampler->refresh_due(iter)) {
          for (index_t i = lo; i < hi; ++i) {
            snapshot_r[static_cast<std::size_t>(i - lo)] =
                lane.true_residual(i);
          }
          sampler->refresh_weights([&](index_t i) {
            const auto [cols, vals] = a.row(i);
            double w = 0.0;
            for (std::size_t p = 0; p < cols.size(); ++p) {
              const index_t j = cols[p];
              if (j >= lo && j < hi) {
                w += std::abs(vals[p]) *
                     snapshot_r[static_cast<std::size_t>(j - lo)];
              }
            }
            return w;
          });
          if constexpr (Metrics::enabled) metrics.weight_refresh();
          if constexpr (Stream::enabled) stream.weight_refresh();
        }
        for (index_t slot = 0; slot < rows; ++slot) {
          const index_t i = sampler->next(iter, slot);
          if constexpr (Metrics::enabled) {
            ++pick_counts[static_cast<std::size_t>(i - lo)];
          }
          lane.relax_drawn(i, iter, active);
        }
      } else {
        lane.relax(iter);
      }
      if constexpr (Metrics::enabled) {
        const BlockedCsr::Block& blk = s.blocked.block(t);
        metrics.read_mix(blk.local_nnz, blk.ghost_nnz);
      }

      if (opts.synchronous) {
#pragma omp barrier
      }

      // Step 2: correct own rows, masked per column (invariant 2). The
      // sampled policies already committed in place per draw.
      if (!sampled) lane.commit(active);
      ++iter;
      board.count(ts, iter);
      for (std::size_t c = 0; c < k_sz; ++c) {
        if (active[c] != 0.0) my_col_relax[c] += rows;
      }
      Lane::count_lanes(metrics, rows, active_cols);

      // Step 3: convergence check — per-column norm of the whole shared
      // residual (racy reads, the paper's scheme), rows ascending.
      if constexpr (Metrics::enabled) metrics.residual_check_begin();
      lane.scan(norms, own_norms);
      if constexpr (Metrics::enabled) metrics.residual_check_end();
      if constexpr (Stream::enabled) beacon = Lane::beacon(own_norms, r0_norm);
      if (opts.record_history) {
        // The norm sums racy relaxed reads of r that interleave with other
        // threads' writes: this point records the residual *as this thread
        // saw it*, not a consistent global norm. The serial post-run check
        // (final_rel_residual_1) is the trustworthy value.
        my_history.push_back({timer.seconds(), t, iter, norms[0] / r0_norm[0]});
      }
      bool my_all_done = true;
      for (std::size_t c = 0; c < k_sz; ++c) {
        if (active[c] == 0.0) continue;
        const bool my_done = board.flag(ts, c, norms[c] / r0_norm[c], iter);
        my_all_done = my_all_done && my_done;
      }
      if constexpr (Metrics::enabled) {
        if (active_cols > 0) metrics.flag_update(my_all_done, iter);
      }

      if (opts.synchronous) {
#pragma omp barrier
      }
      board.poll(iter, metrics);
      if (opts.synchronous) {
        // Keep lockstep: every thread must pass the same number of
        // barriers, and all see the verified stop decisions together.
#pragma omp barrier
      }
      if constexpr (Metrics::enabled) metrics.iteration_end(iter - 1, rows);
      if constexpr (Stream::enabled) {
        if (stream.due(iter)) {
          stream.publish(iter, rows, beacon,
                         sampled ? static_cast<std::uint64_t>(iter) *
                                       static_cast<std::uint64_t>(rows)
                                 : 0);
        }
      }
      if (opts.yield && !board.stopped()) sched_yield();
    }
    if constexpr (Stream::enabled) {
      // Terminal beacon: the monitor always sees this thread's final state
      // even when the last iteration missed the stride.
      stream.finish(iter, rows, beacon,
                    sampled ? static_cast<std::uint64_t>(iter) *
                                  static_cast<std::uint64_t>(rows)
                            : 0);
    }
    run.iterations_per_thread[ts] = iter;
    if constexpr (Metrics::enabled) {
      if (sampled) metrics.policy_counts(pick_counts);
    }
    if constexpr (Faults::enabled) {
      // The last iteration's bit flips are logged after its sync point.
      if constexpr (Metrics::enabled) metrics.sync_faults(faults.schedule());
      fault_logs[ts] = faults.schedule().take_log();
    }
    AJAC_TSAN_RELEASE(&run);
  }
  AJAC_TSAN_ACQUIRE(&run);

  run.seconds = timer.seconds();
  run.x = Lane::snapshot(x);

  // Independent serial verification of every column's final residual: one
  // pass over all k columns (column c bitwise the single-RHS residual).
  typename Lane::Dense final_r = Lane::make_dense(n, k);
  Vector final_norms(k_sz, 0.0);
  Lane::residual(a, run.x, s.b, final_r, final_norms);
  run.verdict = verify_and_polish(
      a, s.inv_diag, std::move(final_norms), r0_norm, opts, opts.num_threads,
      timer, [&](index_t c, auto&& f) {
        Lane::with_column(run.x, final_r, s.b, c, f);
      });
  run.stop_iteration = board.take_stop_iterations();

  run.relaxations_per_column.assign(k_sz, 0);
  for (const auto& per_thread : col_relax) {
    for (std::size_t c = 0; c < k_sz; ++c) {
      run.relaxations_per_column[c] += per_thread[c];
    }
  }
  run.fault_events = fault::merge(fault_logs);
  return Lane::make_result(std::move(run), s);
}

/// The one dispatch ladder: faults and metrics through with_hooks (the pair
/// solve_mesh dispatches too), then telemetry. Each hook compiles to no-ops
/// when off, so the common (no plan, no registry, no hub) path is exactly
/// the plain solver.
template <class Lane>
typename Lane::Result dispatch(const Setup<Lane>& s) {
  using Active = ActiveFaults<typename Lane::Shared, typename Lane::Dense>;
  return with_hooks<Active, NullFaults>(
      s.plan != nullptr, s.opts.metrics != nullptr,
      [&]<class Faults, class Metrics>() {
        if (s.opts.stream != nullptr) {
          return solve_impl<Lane, Faults, Metrics, ActiveStream>(s);
        }
        return solve_impl<Lane, Faults, Metrics, NullStream>(s);
      });
}

/// The prologue both public calls share: entry checks, partition, inv_diag,
/// plan validation, metrics reset, the kernel layouts, and the stream's
/// begin_run — then the dispatch.
template <class Lane>
typename Lane::Result solve(const CsrMatrix& a, const typename Lane::Dense& b,
                            const typename Lane::Dense& x0,
                            const SharedOptions& opts) {
  AJAC_CHECK(a.num_rows() == a.num_cols());
  const index_t n = a.num_rows();
  Lane::check_inputs(b, x0, n);
  AJAC_CHECK(opts.num_threads >= 1);
  AJAC_CHECK(opts.max_iterations >= 1);
  if (!opts.delay_us.empty()) {
    AJAC_CHECK(opts.delay_us.size() ==
               static_cast<std::size_t>(opts.num_threads));
  }
  Lane::check_options(opts);
  AJAC_CHECK_MSG(!(is_sampled(opts.policy) && opts.synchronous),
                 "sampled row policies relax in place and have no "
                 "synchronous meaning (asynchronous mode only)");
  AJAC_CHECK_MSG(opts.weight_refresh >= 1,
                 "weight_refresh must be a positive iteration cadence");

  const partition::Partition part =
      opts.partition.value_or(partition::contiguous_partition(
          n, opts.num_threads));
  AJAC_CHECK(part.num_parts() == opts.num_threads);
  AJAC_CHECK(part.num_rows() == n);

  // Debug invariant layer: full structural audit of the inputs before the
  // threads start (compiled out in release builds).
  AJAC_DBG_VALIDATE(validate::csr_structure(
      a, {.require_sorted_rows = true, .require_diagonal = true,
          .require_finite = true, .require_square = true}));
  AJAC_DBG_VALIDATE(partition::validate(part, n));
  AJAC_DBG_VALIDATE(validate::finite(Lane::values(b), "b"));
  AJAC_DBG_VALIDATE(validate::finite(Lane::values(x0), "x0"));

  const Vector inv_diag = solvers::inverse_diagonal(a);

  const bool sellcs = opts.kernel == KernelKind::kSellCS;
  const fault::FaultPlan* plan =
      begin_control_plane(opts, opts.num_threads, "thread", "runtime");
  AJAC_CHECK_MSG(plan == nullptr || !sellcs,
                 "fault injection is defined per shared read; the kSellCS "
                 "buffered data plane amortizes those reads away (use "
                 "kBlocked)");

  // The blocked layout is built once per solve, before the threads start
  // (its constructor runs its own first-touch parallel fill). Construction
  // is O(nnz) with a binary search only on ghost entries.
  const BlockedCsr blocked(a, std::span<const index_t>(part.block_starts));
  // kSellCS additions: the SELL interior repack (boundary rows keep
  // relaxing through the blocked layout) and, for fp32 ghosts, the float
  // shadow of x that neighbours refresh from. The shadow starts at x0 so
  // the first refresh reads the same values the blocked path would.
  std::optional<SellCsr> sell;
  if (sellcs) sell.emplace(blocked);
  std::optional<SharedF32Vector> shadow;
  if (opts.ghost_precision == GhostPrecision::kFp32) {
    shadow.emplace(n);
    // Single-threaded setup: momentarily the sole writer (as for x and r).
    shadow->writer_role().assert_held();
    shadow->init(Lane::values(x0));
  }

  if (opts.stream != nullptr) {
    opts.stream->begin_run(opts.num_threads, "thread", opts.tolerance,
                           Lane::kConvention, /*sim_time=*/false);
  }

  return dispatch<Lane>(Setup<Lane>{
      a, b, x0, opts, part, inv_diag, plan, blocked, sell ? &*sell : nullptr,
      shadow ? &*shadow : nullptr});
}

}  // namespace ajac::runtime::detail
