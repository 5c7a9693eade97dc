#pragma once
// The shared-memory Jacobi worker (paper Sec. V), written once for both
// public calls. solve_shared runs it on the scalar lane (shared_jacobi.cpp)
// and solve_shared_batch on the batch lane (shared_batch.cpp); not
// installed, like solve_hooks.hpp.
//
// This file owns the control plane: the prologue (entry checks, partition,
// inv_diag, plan validation, metrics reset, BlockedCsr/SELL builds, the
// stream's begin_run), the per-column termination protocol (per-(thread,
// column) flags, verified stop, freeze mask, park at the iteration cap),
// the sampled-policy weight refresh, the beacons, the serial verification
// with polish, the fault-log merge, and the one Faults x Metrics x Stream x
// kernel dispatch ladder. A single right-hand side is the k = 1 case of the
// per-column protocol.
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
//   fresh_residual            the verified stop's scan of one column;
//   with_column               hands polish one column as plain vectors;
//   beacon / beacon_scale     the streamed residual value and its scale;
//   count_lanes               the batch occupancy metrics (no-op on scalar);
//   make_result               RunRecord -> the public result struct;
//   Worker<Faults, Metrics, Blocked>
//                             the per-thread data plane: own-block mirror,
//                             scratch, and the kernels — relax (step 1),
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
#include <atomic>
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
#include "ajac/runtime/row_policy.hpp"
#include "ajac/runtime/shared_jacobi.hpp"
#include "ajac/runtime/shared_vector.hpp"
#include "ajac/sparse/blocked_csr.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/sell_csr.hpp"
#include "ajac/sparse/validate.hpp"
#include "ajac/sparse/vector_ops.hpp"
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
  const BlockedCsr* blocked;     ///< null on kReference
  const SellCsr* sell;           ///< kSellCS only
  SharedF32Vector* shadow;       ///< fp32 ghost publication only
};

/// The worker's outcome, handed to Lane::make_result. Per-column entries
/// hold one element per lane (one on the scalar lane).
template <class Dense>
struct RunRecord {
  Dense x;
  double seconds = 0.0;
  std::vector<bool> converged;
  Vector final_rel_residual_1;
  std::vector<index_t> polish_sweeps;
  std::vector<index_t> stop_iteration;  ///< verified-stop iteration
  /// Row relaxations while the column was still converging.
  std::vector<index_t> relaxations_per_column;
  std::vector<index_t> iterations_per_thread;
  std::vector<std::vector<SharedHistoryPoint>> histories;  ///< per thread
  std::vector<std::vector<model::RelaxationEvent>> events;  ///< per thread
  fault::FaultLog fault_events;  ///< merged, canonical order
};

template <class Lane, class Faults, class Metrics, class Stream, bool Blocked>
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

  // flags[t * k + c]: thread t's stopping criterion for column c.
  std::vector<std::atomic<int>> flags(nt * k_sz);
  // racy-ok(init): single-threaded setup; the OpenMP fork publishes it.
  for (auto& f : flags) f.store(0, std::memory_order_relaxed);
  std::vector<std::atomic<int>> col_stopped(k_sz);
  // racy-ok(init): single-threaded setup; the OpenMP fork publishes it.
  for (auto& c : col_stopped) c.store(0, std::memory_order_relaxed);
  std::vector<std::atomic<index_t>> iter_counts(nt);
  // racy-ok(init): single-threaded setup; the OpenMP fork publishes it.
  for (auto& c : iter_counts) c.store(0, std::memory_order_relaxed);
  std::atomic<int> stop{0};

  RunRecord<typename Lane::Dense> run;
  run.iterations_per_thread.assign(nt, 0);
  run.stop_iteration.assign(k_sz, 0);
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
    typename Lane::template Worker<Faults, Metrics, Blocked> lane(
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

    // Verification gate: the flags rest on racy reads of the shared
    // residual, which can be arbitrarily stale when threads are
    // oversubscribed on few cores. Before a column actually stops,
    // recompute a fresh residual of it from the current shared x (or check
    // the true iteration counters).
    auto verify_column = [&](index_t c, index_t it) {
      bool all_at_max = true;
      for (auto& cnt : iter_counts) {
        // racy-ok(monotonic): counters only grow; a stale read can only
        // delay the stop decision, never produce a premature one.
        if (cnt.load(std::memory_order_relaxed) < opts.max_iterations) {
          all_at_max = false;
          break;
        }
      }
      const auto cs = static_cast<std::size_t>(c);
      const bool tol_met =
          !all_at_max && opts.tolerance > 0.0 &&
          Lane::fresh_residual(a, s.b, x, c) / r0_norm[cs] <= opts.tolerance;
      // racy-ok(monotonic): 0 -> 1 latch; the exchange only elects the
      // single writer of stop_iteration (read after the join).
      if ((all_at_max || tol_met) &&
          col_stopped[cs].exchange(1, std::memory_order_relaxed) == 0) {
        run.stop_iteration[cs] = it;
      }
    };

    // Stop poll: verify any live column whose every per-thread flag is up,
    // then broadcast the global stop once all columns are stopped.
    auto poll_column_stops = [&](index_t it) {
      index_t stopped = 0;
      for (index_t c = 0; c < k; ++c) {
        const auto cs = static_cast<std::size_t>(c);
        // racy-ok(monotonic): 0 -> 1 latch; stale reads only defer work.
        if (col_stopped[cs].load(std::memory_order_relaxed) == 0) {
          int done_count = 0;
          for (std::size_t tt = 0; tt < nt; ++tt) {
            // racy-ok(flag): flag hints; verify_column re-checks for real.
            done_count += flags[tt * k_sz + cs].load(std::memory_order_relaxed);
          }
          if (done_count == static_cast<int>(nt)) verify_column(c, it);
        }
        // racy-ok(monotonic): 0 -> 1 latch, polled.
        stopped += col_stopped[cs].load(std::memory_order_relaxed) != 0;
      }
      // racy-ok(stop): 0 -> 1 broadcast; the exchange elects the single
      // recorder of the stop event, results are read after the join.
      if (stopped == k && stop.exchange(1, std::memory_order_relaxed) == 0) {
        if constexpr (Metrics::enabled) metrics.stop_decided();
      }
    };

    index_t iter = 0;
    [[maybe_unused]] double beacon = 0.0;
    // racy-ok(stop): stop only transitions 0 -> 1; a stale read costs one
    // extra polling pass, nothing more.
    while (stop.load(std::memory_order_relaxed) == 0) {
      if (iter >= opts.max_iterations) {
        // Parked at the iteration cap. Relaxing further would make the
        // executed (thread, iteration) set — and with it the fault log and
        // relaxation totals — depend on how long the slower threads take
        // to flag, i.e. on scheduler timing. This thread's flags went up
        // when iter reached the cap, so just keep polling the others and
        // re-verifying until every column stops.
        poll_column_stops(iter);
        sched_yield();
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
      }
      if constexpr (Metrics::enabled) metrics.sync_faults(faults);

      // Refresh the freeze mask. col_stopped only ever goes 0 -> 1, so a
      // racy read is safe: once a thread observes a column stopped it stays
      // stopped. In synchronous mode the stores happen before the previous
      // iteration's closing barrier, so all threads flip the mask together
      // — the alignment the bitwise contract needs.
      index_t active_cols = 0;
      for (std::size_t c = 0; c < k_sz; ++c) {
        // racy-ok(monotonic): 0 -> 1 latch; observing the stop late keeps
        // the lane riding (and republishing identical bits) one more pass.
        const bool on = col_stopped[c].load(std::memory_order_relaxed) == 0;
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
      if constexpr (Metrics::enabled && Blocked) {
        const BlockedCsr::Block& blk = s.blocked->block(t);
        metrics.read_mix(blk.local_nnz, blk.ghost_nnz);
      }

      if (opts.synchronous) {
#pragma omp barrier
      }

      // Step 2: correct own rows, masked per column (invariant 2). The
      // sampled policies already committed in place per draw.
      if (!sampled) lane.commit(active);
      ++iter;
      // racy-ok(monotonic): published for the verification gate; it only
      // needs an eventually-fresh lower bound.
      iter_counts[ts].store(iter, std::memory_order_relaxed);
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
        const double rel = norms[c] / r0_norm[c];
        const bool my_done = (opts.tolerance > 0.0 && rel <= opts.tolerance) ||
                             iter >= opts.max_iterations;
        // racy-ok(flag): the paper's termination flags rest on racy
        // residual reads by design; verify_column re-checks before a
        // column actually stops.
        flags[ts * k_sz + c].store(my_done ? 1 : 0, std::memory_order_relaxed);
        my_all_done = my_all_done && my_done;
      }
      if constexpr (Metrics::enabled) {
        if (active_cols > 0) metrics.flag_update(my_all_done, iter);
      }

      if (opts.synchronous) {
#pragma omp barrier
      }
      poll_column_stops(iter);
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
      // racy-ok(stop): monotonic 0 -> 1, polled.
      if (opts.yield && stop.load(std::memory_order_relaxed) == 0) {
        sched_yield();
      }
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
    if constexpr (Faults::enabled) fault_logs[ts] = faults.take_log();
    AJAC_TSAN_RELEASE(&run);
  }
  AJAC_TSAN_ACQUIRE(&run);

  run.seconds = timer.seconds();
  run.x = Lane::snapshot(x);

  // Independent serial verification of every column's final residual: one
  // pass over all k columns (column c bitwise the single-RHS residual).
  typename Lane::Dense final_r = Lane::make_dense(n, k);
  run.final_rel_residual_1.assign(k_sz, 0.0);
  Lane::residual(a, run.x, s.b, final_r, run.final_rel_residual_1);
  run.polish_sweeps.assign(k_sz, 0);
  run.converged.assign(k_sz, false);
  [[maybe_unused]] double polish_t0_us = 0.0;
  if constexpr (Metrics::enabled) polish_t0_us = timer.seconds() * 1e6;
  index_t total_polish = 0;
  for (std::size_t c = 0; c < k_sz; ++c) {
    double& rel = run.final_rel_residual_1[c];
    rel /= r0_norm[c];
    // A thread descheduled mid-iteration may have committed a stale update
    // after the verified stop; polish sequentially until the tolerance
    // verifiably holds (bounded — the state is near the fixed point).
    if (opts.final_polish && opts.tolerance > 0.0 && rel > opts.tolerance) {
      const index_t polish_cap = 20 * opts.num_threads + 200;
      index_t& sweeps = run.polish_sweeps[c];
      Lane::with_column(
          run.x, final_r, s.b, static_cast<index_t>(c),
          [&](std::span<double> xc, std::span<double> rc,
              std::span<const double> bc) {
            while (sweeps < polish_cap && rel > opts.tolerance) {
              for (index_t i = 0; i < n; ++i) {
                const auto is = static_cast<std::size_t>(i);
                xc[is] += s.inv_diag[is] * rc[is];
              }
              a.residual(xc, bc, rc);
              rel = vec::norm1(rc) / r0_norm[c];
              ++sweeps;
            }
          });
      total_polish += sweeps;
    }
    run.converged[c] = opts.tolerance > 0.0 && rel <= opts.tolerance;
  }
  if constexpr (Metrics::enabled) {
    obs::ActorSlot& slot0 = opts.metrics->actor(0);
    // Post-join epilogue: the workers are gone, this thread owns slot 0.
    slot0.owner.assert_held();
    if (total_polish > 0) {
      slot0.add(obs::Counter::kPolishSweeps,
                static_cast<std::uint64_t>(total_polish));
      slot0.span(obs::TraceKind::kPolish, polish_t0_us, timer.seconds() * 1e6,
                 total_polish);
    }
    // The whole solve (parallel phase + serial verification + polish) as
    // one span on actor 0's lane.
    slot0.span(obs::TraceKind::kSolve, 0.0, timer.seconds() * 1e6);
  }

  run.relaxations_per_column.assign(k_sz, 0);
  for (const auto& per_thread : col_relax) {
    for (std::size_t c = 0; c < k_sz; ++c) {
      run.relaxations_per_column[c] += per_thread[c];
    }
  }
  if constexpr (Faults::enabled) {
    for (auto& log : fault_logs) {
      run.fault_events.insert(run.fault_events.end(), log.begin(), log.end());
    }
    fault::canonicalize(run.fault_events);
  }
  return Lane::make_result(std::move(run), s);
}

/// The one dispatch ladder: faults, metrics, and telemetry each compile to
/// no-ops when off, so the common (no plan, no registry, no hub) path is
/// exactly the plain solver; the kernel choice folds into the compile-time
/// Blocked flag.
template <class Lane, class Faults, class Metrics, class Stream>
typename Lane::Result dispatch_kernel(const Setup<Lane>& s) {
  if (s.blocked != nullptr) {
    return solve_impl<Lane, Faults, Metrics, Stream, true>(s);
  }
  return solve_impl<Lane, Faults, Metrics, Stream, false>(s);
}

template <class Lane, class Faults, class Metrics>
typename Lane::Result dispatch_stream(const Setup<Lane>& s) {
  if (s.opts.stream != nullptr) {
    return dispatch_kernel<Lane, Faults, Metrics, ActiveStream>(s);
  }
  return dispatch_kernel<Lane, Faults, Metrics, NullStream>(s);
}

template <class Lane>
typename Lane::Result dispatch(const Setup<Lane>& s) {
  using Active = ActiveFaults<typename Lane::Shared, typename Lane::Dense>;
  if (s.plan != nullptr && s.opts.metrics != nullptr) {
    return dispatch_stream<Lane, Active, ActiveMetrics>(s);
  }
  if (s.plan != nullptr) return dispatch_stream<Lane, Active, NullMetrics>(s);
  if (s.opts.metrics != nullptr) {
    return dispatch_stream<Lane, NullFaults, ActiveMetrics>(s);
  }
  return dispatch_stream<Lane, NullFaults, NullMetrics>(s);
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

  Vector inv_diag = a.diagonal();
  for (index_t i = 0; i < n; ++i) {
    AJAC_CHECK_MSG(inv_diag[i] != 0.0, "zero diagonal at row " << i);
    inv_diag[i] = 1.0 / inv_diag[i];
  }

  const bool sellcs = opts.kernel == KernelKind::kSellCS;
  const fault::FaultPlan* plan =
      opts.fault_plan && !opts.fault_plan->empty() ? opts.fault_plan.get()
                                                   : nullptr;
  if (plan != nullptr) {
    AJAC_CHECK_MSG(!opts.synchronous,
                   "fault injection targets the asynchronous runtime (the "
                   "synchronous barriers serialize every fault away)");
    AJAC_CHECK_MSG(!sellcs,
                   "fault injection is defined per shared read; the kSellCS "
                   "buffered data plane amortizes those reads away (use "
                   "kBlocked)");
    plan->validate(opts.num_threads);
  }

  if (opts.metrics != nullptr) {
    opts.metrics->set_actor_kind("thread");
    // Hint: one iteration span per local iteration plus a handful of
    // instants; reserving here keeps the timed loop reallocation-free.
    opts.metrics->reset(opts.num_threads,
                        static_cast<std::size_t>(opts.max_iterations) + 64);
  }

  // The blocked layout is built once per solve, before the threads start
  // (its constructor runs its own first-touch parallel fill). Construction
  // is O(nnz) with a binary search only on ghost entries.
  std::optional<BlockedCsr> blocked;
  if (opts.kernel != KernelKind::kReference) {
    blocked.emplace(a, std::span<const index_t>(part.block_starts));
  }
  // kSellCS additions: the SELL interior repack (boundary rows keep
  // relaxing through the blocked layout) and, for fp32 ghosts, the float
  // shadow of x that neighbours refresh from. The shadow starts at x0 so
  // the first refresh reads the same values the blocked path would.
  std::optional<SellCsr> sell;
  if (sellcs) sell.emplace(*blocked);
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
      a, b, x0, opts, part, inv_diag, plan, blocked ? &*blocked : nullptr,
      sell ? &*sell : nullptr, shadow ? &*shadow : nullptr});
}

}  // namespace ajac::runtime::detail
