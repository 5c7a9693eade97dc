#pragma once
// The control plane both real runtimes share (paper Sec. V): the
// termination board with its verified stop, the per-actor metrics
// recorders, and the serial epilogue (verification + bounded polish).
// solve_shared and solve_shared_batch run it with one actor per OpenMP
// thread over k columns of the shared x; solve_mesh runs it with one actor
// per agent over k = 1 column of its x board. Whatever differs between the
// runtimes (vectors, kernels, queues, fault payloads) lives in the types
// that compose these pieces.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ajac/fault/actor_schedule.hpp"
#include "ajac/fault/fault_plan.hpp"
#include "ajac/model/trace.hpp"
#include "ajac/obs/metrics.hpp"
#include "ajac/runtime/shared_multi_vector.hpp"
#include "ajac/runtime/shared_vector.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/multi_vector.hpp"
#include "ajac/sparse/types.hpp"
#include "ajac/sparse/vector_ops.hpp"
#include "ajac/util/check.hpp"
#include "ajac/util/timer.hpp"

namespace ajac::runtime {

/// Element (i, c) of a scalar (c = 0) or batch vector, plain or shared.
inline double at(const Vector& v, index_t i, index_t /*c*/) { return v[i]; }
inline double at(const MultiVector& v, index_t i, index_t c) { return v(i, c); }
inline double at(const SharedVector& v, index_t i, index_t /*c*/) {
  return v.read(i);
}
inline double at(const SharedMultiVector& v, index_t i, index_t c) {
  return v.read(i, c);
}

/// The verified stop's scan: the 1-norm of column c of b - A x, recomputed
/// from the current shared x in CSR entry order.
template <class Dense, class Shared>
[[nodiscard]] double fresh_residual(const CsrMatrix& a, const Dense& b,
                                    const Shared& x, index_t c) {
  double fresh = 0.0;
  for (index_t i = 0; i < a.num_rows(); ++i) {
    double acc = at(b, i, c);
    const auto [cols, vals] = a.row(i);
    for (std::size_t p = 0; p < cols.size(); ++p) {
      acc -= vals[p] * at(x, cols[p], c);
    }
    fresh += std::abs(acc);
  }
  return fresh;
}

/// The paper's termination protocol over `actors` actors and k columns:
/// per-(actor, column) flags raised from racy residual norms, per-actor
/// iteration counters, per-column stop latches, and the global stop.
/// Before a column stops, a verified stop either proves every actor hit
/// the iteration cap or recomputes a fresh residual of the column from the
/// shared x — the flags rest on racy reads, which can be arbitrarily stale
/// when actors are oversubscribed on few cores. A stopped column stays
/// stopped (the freeze mask of the batch lane); the global stop latches
/// once every column has.
template <class Dense, class Shared>
class TerminationBoard {
 public:
  TerminationBoard(const CsrMatrix& a, const Dense& b, const Shared& x,
                   std::span<const double> r0_norm, index_t actors,
                   index_t max_iterations, double tolerance)
      : a_(a), b_(b), x_(x), r0_norm_(r0_norm),
        actors_(static_cast<std::size_t>(actors)), k_(r0_norm.size()),
        max_iterations_(max_iterations), tolerance_(tolerance),
        flags_(actors_ * k_), col_stopped_(k_), iter_counts_(actors_),
        stop_iteration_(k_, 0) {}

  [[nodiscard]] bool stopped() const {
    // racy-ok(stop): stop only transitions 0 -> 1; a stale read costs one
    // extra polling pass, nothing more.
    return stop_.load(std::memory_order_relaxed) != 0;
  }

  /// False once column c has stopped. In synchronous mode the latch is set
  /// before the previous iteration's closing barrier, so every actor sees
  /// it flip at the same iteration boundary.
  [[nodiscard]] bool column_live(std::size_t c) const {
    // racy-ok(monotonic): 0 -> 1 latch; observing the stop late keeps a
    // lane riding (and republishing identical bits) one more pass.
    return col_stopped_[c].load(std::memory_order_relaxed) == 0;
  }

  [[nodiscard]] bool at_cap(index_t iter) const {
    return iter >= max_iterations_;
  }

  /// Actor t has completed `iter` local iterations.
  void count(std::size_t t, index_t iter) {
    // racy-ok(monotonic): published for the verification gate; it only
    // needs an eventually-fresh lower bound.
    iter_counts_[t].store(iter, std::memory_order_relaxed);
  }

  /// Actor t's flag for column c after `iter` iterations, from its racy
  /// relative residual `rel`; returns whether the flag is up.
  bool flag(std::size_t t, std::size_t c, double rel, index_t iter) {
    const bool done =
        (tolerance_ > 0.0 && rel <= tolerance_) || iter >= max_iterations_;
    // racy-ok(flag): the paper's termination flags rest on racy residual
    // reads by design; the verified stop re-checks before a column stops.
    flags_[t * k_ + c].store(done ? 1 : 0, std::memory_order_relaxed);
    return done;
  }

  /// Stop poll: verify any live column whose every flag is up, then latch
  /// the global stop once all columns are stopped. The actor that wins the
  /// latch records the run's one kStop instant.
  template <class Metrics>
  void poll(index_t it, Metrics& metrics) {
    std::size_t stopped = 0;
    for (std::size_t c = 0; c < k_; ++c) {
      if (column_live(c)) {
        int done_count = 0;
        for (std::size_t t = 0; t < actors_; ++t) {
          // racy-ok(flag): flag hints; verify re-checks for real.
          done_count += flags_[t * k_ + c].load(std::memory_order_relaxed);
        }
        if (done_count == static_cast<int>(actors_)) verify(c, it);
      }
      stopped += column_live(c) ? 0 : 1;
    }
    // racy-ok(stop): 0 -> 1 broadcast; the exchange elects the single
    // recorder of the stop event, results are read after the join.
    if (stopped == k_ && stop_.exchange(1, std::memory_order_relaxed) == 0) {
      if constexpr (Metrics::enabled) metrics.stop_decided();
    }
  }

  /// Parked at the iteration cap. Relaxing further would make the executed
  /// (actor, iteration) set — and with it the fault log and relaxation
  /// totals — depend on how long the slower actors take to flag, i.e. on
  /// scheduler timing. The parked actor's flags went up when it reached
  /// the cap, so it just keeps polling the others until every column stops.
  template <class Metrics>
  void park(index_t it, Metrics& metrics) {
    poll(it, metrics);
    sched_yield();
  }

  /// The iteration at which each column's verified stop latched; read
  /// after the join.
  [[nodiscard]] std::vector<index_t> take_stop_iterations() {
    return std::move(stop_iteration_);
  }

 private:
  void verify(std::size_t c, index_t it) {
    bool all_at_max = true;
    for (auto& cnt : iter_counts_) {
      // racy-ok(monotonic): counters only grow; a stale read can only
      // delay the stop decision, never produce a premature one.
      if (cnt.load(std::memory_order_relaxed) < max_iterations_) {
        all_at_max = false;
        break;
      }
    }
    const bool tol_met =
        !all_at_max && tolerance_ > 0.0 &&
        fresh_residual(a_, b_, x_, static_cast<index_t>(c)) / r0_norm_[c] <=
            tolerance_;
    // racy-ok(monotonic): 0 -> 1 latch; the exchange only elects the
    // single writer of stop_iteration (read after the join).
    if ((all_at_max || tol_met) &&
        col_stopped_[c].exchange(1, std::memory_order_relaxed) == 0) {
      stop_iteration_[c] = it;
    }
  }

  const CsrMatrix& a_;
  const Dense& b_;
  const Shared& x_;
  std::span<const double> r0_norm_;
  std::size_t actors_;
  std::size_t k_;
  index_t max_iterations_;
  double tolerance_;
  // Value-initialized to 0 on the constructing thread, before the actors
  // start; starting them publishes the zeros.
  std::vector<std::atomic<int>> flags_;  ///< [t * k + c]
  std::vector<std::atomic<int>> col_stopped_;
  std::vector<std::atomic<index_t>> iter_counts_;
  std::atomic<int> stop_{0};
  std::vector<index_t> stop_iteration_;
};

/// The entry steps both runtimes share: resolve the fault plan (null when
/// absent or empty; asynchronous runs only, validated against the actor
/// count) and reset the registry to one `actor_kind` slot per actor. The
/// reservation hint is one iteration span per local iteration plus a
/// handful of instants, which keeps the timed loop reallocation-free.
template <class Options>
const fault::FaultPlan* begin_control_plane(const Options& opts,
                                            index_t actors,
                                            const char* actor_kind,
                                            const char* runtime) {
  const fault::FaultPlan* plan =
      opts.fault_plan && !opts.fault_plan->empty() ? opts.fault_plan.get()
                                                   : nullptr;
  if (plan != nullptr) {
    AJAC_CHECK_MSG(!opts.synchronous, "fault injection targets the asynchronous "
                                          << runtime << " (the synchronous "
                                          "barriers serialize every fault away)");
    plan->validate(actors);
  }
  if (opts.metrics != nullptr) {
    opts.metrics->set_actor_kind(actor_kind);
    opts.metrics->reset(actors,
                        static_cast<std::size_t>(opts.max_iterations) + 64);
  }
  return plan;
}

/// Queue traffic of one mesh agent, folded into its metrics slot and the
/// result after the join.
struct MessageTotals {
  index_t sent = 0;
  index_t received = 0;
  index_t dropped = 0;
  index_t duplicated = 0;
  index_t queue_full = 0;
};

/// Metrics context for the default (no registry) path. `enabled` is false
/// and every hook site is `if constexpr`-guarded, so the hooks need no
/// Null bodies and the uninstrumented solve carries no metrics branches, no
/// extra timer reads, and produces bitwise the results of a build without
/// the metrics layer. Only the seqlock retry sink is passed unguarded
/// (null: the reads count nothing).
struct NullMetrics {
  static constexpr bool enabled = false;

  NullMetrics(obs::MetricsRegistry* /*reg*/, index_t /*actor*/,
              const WallTimer& /*timer*/) {}

  [[nodiscard]] std::uint64_t* retry_sink() { return nullptr; }
};

[[nodiscard]] inline obs::TraceKind fault_trace_kind(fault::FaultKind k) {
  switch (k) {
    case fault::FaultKind::kStragglerOn: return obs::TraceKind::kStragglerOn;
    case fault::FaultKind::kStaleWindowOn:
      return obs::TraceKind::kStaleWindowOn;
    case fault::FaultKind::kMessageDrop: return obs::TraceKind::kMessageDrop;
    case fault::FaultKind::kMessageDuplicate:
      return obs::TraceKind::kMessageDuplicate;
    case fault::FaultKind::kMessageReorder:
      return obs::TraceKind::kMessageReorder;
    case fault::FaultKind::kBitFlip: return obs::TraceKind::kBitFlip;
    case fault::FaultKind::kCrash: return obs::TraceKind::kCrash;
    case fault::FaultKind::kRecover: return obs::TraceKind::kRecover;
  }
  return obs::TraceKind::kBitFlip;  // unreachable
}

/// Per-actor recorder writing into this actor's ActorSlot. All state is
/// actor-local; the only shared object touched is the slot, which has a
/// single writer by the registry's threading contract. Each recording
/// method claims the slot's sole-writer role (assert_held) before touching
/// it — the claim is what lets -Wthread-safety verify every slot mutation
/// flows through the owning actor's recorder.
class ActiveMetrics {
 public:
  static constexpr bool enabled = true;

  ActiveMetrics(obs::MetricsRegistry* reg, index_t actor,
                const WallTimer& timer)
      : slot_(&reg->actor(actor)), timer_(&timer) {}

  void iteration_begin() { t0_us_ = timer_->seconds() * 1e6; }

  /// Injected busy-wait (per-thread delay or straggler stall), attributed
  /// by duration rather than timed: the wait is synthetic and exact.
  void spin_wait(double us) {
    slot_->owner.assert_held();
    slot_->add(obs::Counter::kSpinWaitNs,
               static_cast<std::uint64_t>(us * 1e3));
  }

  /// Timestamp the injections the fault layer performed since the last
  /// call. Its log is append-only within the actor, so entries past the
  /// last seen size are new; each counts once in kFaultEvents and becomes a
  /// timeline instant (arg0 = the log entry's detail field: row for bit
  /// flips, receiver for message faults, 0 otherwise).
  void sync_faults(const fault::ActorSchedule& faults) {
    slot_->owner.assert_held();
    const double stalled = faults.stalled_us();
    if (stalled > seen_stall_us_) {
      slot_->add(obs::Counter::kSpinWaitNs,
                 static_cast<std::uint64_t>((stalled - seen_stall_us_) * 1e3));
      seen_stall_us_ = stalled;
    }
    const fault::FaultLog& log = faults.log();
    if (log.size() == seen_faults_) return;
    const double now_us = timer_->seconds() * 1e6;
    for (; seen_faults_ < log.size(); ++seen_faults_) {
      const fault::FaultEvent& e = log[seen_faults_];
      slot_->add(obs::Counter::kFaultEvents);
      slot_->instant(fault_trace_kind(e.kind), now_us, e.detail, e.detail2);
    }
  }

  /// One cross-block versioned read: how many versions behind a synchronous
  /// schedule it was. Under lockstep Jacobi a reader in local iteration
  /// `iter` (0-based) sees version `iter` of every neighbor; the shortfall
  /// is the staleness l of the paper's Φ(l) propagation analysis.
  void staleness(index_t iter, index_t version) {
    slot_->owner.assert_held();
    const std::uint64_t lag =
        version < iter ? static_cast<std::uint64_t>(iter - version) : 0;
    slot_->record(obs::Hist::kReadStaleness, lag);
  }

  /// Blocked kernels only: how many matrix entries this iteration resolved
  /// from the thread-private mirror vs through the SharedVector. The counts
  /// are precomputed per block (local_nnz/ghost_nnz), so the hook costs two
  /// counter adds per iteration, nothing per entry. The mesh leaves both
  /// at zero.
  void read_mix(index_t local_entries, index_t ghost_entries) {
    slot_->owner.assert_held();
    slot_->add(obs::Counter::kLocalReads,
               static_cast<std::uint64_t>(local_entries));
    slot_->add(obs::Counter::kGhostReads,
               static_cast<std::uint64_t>(ghost_entries));
  }

  /// Thread-local seqlock retry accumulator, flushed per iteration.
  [[nodiscard]] std::uint64_t* retry_sink() { return &retries_; }

  void residual_check_begin() { tr0_us_ = timer_->seconds() * 1e6; }
  void residual_check_end() {
    slot_->owner.assert_held();
    const double us = timer_->seconds() * 1e6 - tr0_us_;
    slot_->add(obs::Counter::kResidualCheckNs,
               static_cast<std::uint64_t>(us * 1e3));
    slot_->record(obs::Hist::kResidualCheckUs,
                  static_cast<std::uint64_t>(us));
  }

  void iteration_end(index_t iter, index_t rows) {
    slot_->owner.assert_held();
    const double t1_us = timer_->seconds() * 1e6;
    slot_->add(obs::Counter::kIterations);
    slot_->add(obs::Counter::kRelaxations, static_cast<std::uint64_t>(rows));
    if (retries_ != 0) {
      slot_->add(obs::Counter::kSeqlockRetries, retries_);
      retries_ = 0;
    }
    slot_->record(obs::Hist::kIterationUs,
                  static_cast<std::uint64_t>(t1_us - t0_us_));
    slot_->span(obs::TraceKind::kIteration, t0_us_, t1_us, iter);
  }

  /// Batch path, once per local iteration: rows relaxed x lanes still
  /// converging (kLaneRelaxations — every lane is computed regardless, but
  /// only active lanes are useful work) and the occupancy sample for the
  /// batch-efficiency histogram.
  void batch_iteration(index_t rows, index_t active_cols) {
    slot_->owner.assert_held();
    slot_->add(obs::Counter::kLaneRelaxations,
               static_cast<std::uint64_t>(rows) *
                   static_cast<std::uint64_t>(active_cols));
    slot_->record(obs::Hist::kBatchOccupancy,
                  static_cast<std::uint64_t>(active_cols));
  }

  void flag_update(bool my_done, index_t iter) {
    if (my_done == flag_up_) return;
    slot_->owner.assert_held();
    flag_up_ = my_done;
    const double now_us = timer_->seconds() * 1e6;
    if (my_done) {
      slot_->add(obs::Counter::kFlagRaises);
      slot_->instant(obs::TraceKind::kFlagRaise, now_us, iter);
    } else {
      slot_->instant(obs::TraceKind::kFlagLower, now_us, iter);
    }
  }

  void stop_decided() {
    slot_->owner.assert_held();
    slot_->instant(obs::TraceKind::kStop, timer_->seconds() * 1e6);
  }

  /// Sampled row policies: one |r_i| prefix-sum rebuild happened.
  void weight_refresh() {
    slot_->owner.assert_held();
    slot_->add(obs::Counter::kWeightRefreshes);
  }

  /// kSellCS only: one dense ghost-buffer refresh happened (one racy read
  /// per distinct ghost column; kGhostReads still counts the per-entry
  /// gather volume those refreshes replace, via read_mix).
  void ghost_refresh() {
    slot_->owner.assert_held();
    slot_->add(obs::Counter::kGhostRefreshes);
  }

  /// Sampled row policies, once per thread after its loop: the per-row
  /// relaxation counts (kRowRelaxations histogram — natural order would be
  /// a point mass at the iteration count) and the block's selection skew,
  /// max over mean as a percentage (100 = perfectly even; residual-weighted
  /// runs on skewed problems push it far above).
  void policy_counts(std::span<const std::uint32_t> counts) {
    if (counts.empty()) return;
    slot_->owner.assert_held();
    std::uint64_t total = 0;
    std::uint64_t max = 0;
    for (const std::uint32_t c : counts) {
      slot_->record(obs::Hist::kRowRelaxations, c);
      total += c;
      if (c > max) max = c;
    }
    if (total == 0) return;
    slot_->add(obs::Counter::kPolicyDraws, total);
    const std::uint64_t skew_pct =
        max * 100 * static_cast<std::uint64_t>(counts.size()) / total;
    slot_->record(obs::Hist::kRowSelectionSkew, skew_pct);
  }

  /// Mesh: sender-iteration lag of one applied ghost packet.
  void ghost_age(index_t iter, index_t header) {
    slot_->owner.assert_held();
    const index_t age = iter > header ? iter - header : 0;
    slot_->record(obs::Hist::kGhostReadAge, static_cast<std::uint64_t>(age));
  }

  /// Mesh: mailbox depth observed by one drain pass (popped packet count).
  void drain_summary(index_t popped) {
    slot_->owner.assert_held();
    slot_->record(obs::Hist::kQueueDepth, static_cast<std::uint64_t>(popped));
  }

  /// Mesh, once per agent after its loop: the queue traffic totals.
  void message_totals(const MessageTotals& totals) {
    slot_->owner.assert_held();
    slot_->add(obs::Counter::kMessagesSent,
               static_cast<std::uint64_t>(totals.sent));
    slot_->add(obs::Counter::kMessagesReceived,
               static_cast<std::uint64_t>(totals.received));
    slot_->add(obs::Counter::kMessagesDropped,
               static_cast<std::uint64_t>(totals.dropped));
    slot_->add(obs::Counter::kMessagesDuplicated,
               static_cast<std::uint64_t>(totals.duplicated));
    slot_->add(obs::Counter::kQueueFullDrops,
               static_cast<std::uint64_t>(totals.queue_full));
  }

 private:
  obs::ActorSlot* slot_;
  const WallTimer* timer_;
  double t0_us_ = 0.0;
  double tr0_us_ = 0.0;
  double seen_stall_us_ = 0.0;
  std::uint64_t retries_ = 0;
  std::size_t seen_faults_ = 0;
  bool flag_up_ = false;
};

/// The one Faults x Metrics dispatch both runtimes share: calls
/// `f.template operator()<Faults, Metrics>()` with the Active or the Null
/// context of each, chosen at run time, so the no-plan, no-registry solve
/// instantiates the plain driver with every hook compiled away.
template <class ActiveFaults, class NullFaults, class F>
auto with_hooks(bool faults, bool metrics, F&& f) {
  if (faults && metrics) {
    return f.template operator()<ActiveFaults, ActiveMetrics>();
  }
  if (faults) return f.template operator()<ActiveFaults, NullMetrics>();
  if (metrics) return f.template operator()<NullFaults, ActiveMetrics>();
  return f.template operator()<NullFaults, NullMetrics>();
}

/// Per-actor residual histories as one time-ordered list.
template <class Point>
std::vector<Point> merge_histories(
    const std::vector<std::vector<Point>>& per_actor) {
  std::vector<Point> out;
  for (const auto& h : per_actor) out.insert(out.end(), h.begin(), h.end());
  std::sort(out.begin(), out.end(), [](const Point& p1, const Point& p2) {
    return p1.seconds < p2.seconds;
  });
  return out;
}

/// Per-actor relaxation events as one trace. Per-row order is preserved
/// because each row has one writer, which appends its events in execution
/// order.
inline model::RelaxationTrace merge_traces(
    index_t n,
    const std::vector<std::vector<model::RelaxationEvent>>& per_actor) {
  model::RelaxationTrace trace(n);
  for (const auto& events : per_actor) {
    for (const auto& e : events) trace.add_event(e);
  }
  return trace;
}

/// Per-column outcome of the serial epilogue.
struct Verdict {
  std::vector<bool> converged;
  Vector final_rel_residual_1;
  std::vector<index_t> polish_sweeps;
};

/// The serial epilogue both runtimes end with, after the join. `norms`
/// holds the 1-norm of each column of the final residual r = b - A x
/// (computed independently of the racy loop) and becomes the relative
/// residual. An actor descheduled mid-iteration may have committed a stale
/// update after the verified stop, so a column still above tolerance is
/// polished sequentially until the tolerance verifiably holds — bounded at
/// 20 * actors + 200 sweeps, since the state is near the fixed point.
/// `with_column(c, f)` hands f column c of (x, r, b) as spans. With a
/// registry, actor 0's slot records kPolishSweeps, the kPolish span and
/// the kSolve span of the whole solve.
template <class Options, class WithColumn>
Verdict verify_and_polish(const CsrMatrix& a, const Vector& inv_diag,
                          Vector norms, std::span<const double> r0_norm,
                          const Options& opts, index_t actors,
                          const WallTimer& timer, WithColumn&& with_column) {
  const std::size_t k = norms.size();
  Verdict v{std::vector<bool>(k, false), std::move(norms),
            std::vector<index_t>(k, 0)};
  const double polish_t0_us = timer.seconds() * 1e6;
  const index_t polish_cap = 20 * actors + 200;
  index_t total_polish = 0;
  for (std::size_t c = 0; c < k; ++c) {
    double& rel = v.final_rel_residual_1[c];
    rel /= r0_norm[c];
    if (opts.final_polish && opts.tolerance > 0.0 && rel > opts.tolerance) {
      index_t& sweeps = v.polish_sweeps[c];
      with_column(static_cast<index_t>(c), [&](std::span<double> xc,
                                               std::span<double> rc,
                                               std::span<const double> bc) {
        while (sweeps < polish_cap && rel > opts.tolerance) {
          for (std::size_t i = 0; i < xc.size(); ++i) {
            xc[i] += inv_diag[i] * rc[i];
          }
          a.residual(xc, bc, rc);
          rel = vec::norm1(rc) / r0_norm[c];
          ++sweeps;
        }
      });
      total_polish += sweeps;
    }
    v.converged[c] = opts.tolerance > 0.0 && rel <= opts.tolerance;
  }
  if (opts.metrics != nullptr) {
    obs::ActorSlot& slot0 = opts.metrics->actor(0);
    // Post-join epilogue: the actors are gone, this thread owns slot 0.
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
  return v;
}

}  // namespace ajac::runtime
