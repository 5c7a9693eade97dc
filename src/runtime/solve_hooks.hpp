#pragma once
// Internal fault / metrics / telemetry hook contexts of the shared-memory
// worker (shared_worker.hpp), which runs both the single-RHS and the
// batched solve. Not installed: this header lives next to the runtime
// translation units and is not part of the public ajac/runtime interface.
//
// Each hook pair follows the same pattern: a Null context whose `enabled`
// is false and whose methods are empty (every call site is `if constexpr`
// guarded, so the unfaulted/uninstrumented instantiation compiles to the
// plain solver, branch-free), and an Active context holding thread-local
// state. The fault injector serves both lanes: its FaultClock coordinates
// (seed, thread, iteration, row) do not involve the lane width, so a fault
// decision is ONE decision per row per iteration applied to all k lanes —
// determinism does not depend on k.

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ajac/fault/fault_plan.hpp"
#include "ajac/obs/metrics.hpp"
#include "ajac/obs/stream.hpp"
#include "ajac/runtime/blocked_kernels.hpp"
#include "ajac/runtime/shared_multi_vector.hpp"
#include "ajac/runtime/shared_vector.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/multi_vector.hpp"
#include "ajac/sparse/types.hpp"
#include "ajac/util/check.hpp"
#include "ajac/util/timer.hpp"

namespace ajac::runtime::detail {

// Fault payloads by vector type. The injector below makes every decision
// once; only what a stale-window snapshot stores, what a crash reset
// rewrites, and what a stale read returns depend on the lane width.

[[nodiscard]] inline index_t lane_width(const SharedVector& /*x*/) { return 1; }
[[nodiscard]] inline index_t lane_width(const SharedMultiVector& x) {
  return x.num_cols();
}

/// Crash recovery with state reset: rewrite row i of the shared x from x0.
inline void reset_row(SharedVector& x, const Vector& x0, index_t i)
    AJAC_REQUIRES(x.writer_role()) {
  x.write(i, x0[static_cast<std::size_t>(i)]);
}
inline void reset_row(SharedMultiVector& x, const MultiVector& x0, index_t i)
    AJAC_REQUIRES(x.writer_role()) {
  x.write_row(i, {x0.row(i), static_cast<std::size_t>(x.num_cols())});
}

/// Stale-window snapshot of ghost row j into `out` (lane_width values);
/// returns the seqlock version on traced scalar runs, else 0.
inline index_t snapshot_row(const SharedVector& x, index_t j, double* out) {
  if (x.traced()) {
    const auto [value, version] = x.read_versioned(j);
    *out = value;
    return version;
  }
  *out = x.read(j);
  return 0;
}
inline index_t snapshot_row(const SharedMultiVector& x, index_t j,
                            double* out) {
  x.read_row(j, {out, static_cast<std::size_t>(x.num_cols())});
  return 0;
}

/// Fault context for the default (no plan) path. `enabled` is false and
/// every hook site is `if constexpr`-guarded, so this instantiation
/// compiles to exactly the pre-fault solver: the zero-fault path carries
/// no fault branches at all. Serves both lanes.
struct NullFaults {
  static constexpr bool enabled = false;

  template <class Dense, class Shared>
  NullFaults(const CsrMatrix& /*a*/, const Dense& /*x0*/,
             const fault::FaultPlan* /*plan*/, index_t /*thread*/,
             index_t /*lo*/, index_t /*hi*/, Shared& /*x*/) {}

  void begin_iteration(index_t /*iter*/) {}
  [[nodiscard]] bool consume_state_reset() { return false; }
  bool flip(index_t /*row*/, std::span<const index_t> /*cols*/,
            std::span<const double> /*vals*/, FlippedEntry& /*out*/) {
    return false;
  }
  [[nodiscard]] double read(const SharedVector& x, index_t j) const {
    return x.read(j);
  }
  [[nodiscard]] std::pair<double, index_t> read_versioned(
      const SharedVector& x, index_t j, std::uint64_t* retries) const {
    return x.read_versioned(j, retries);
  }
  void read_row(const SharedMultiVector& x, index_t j,
                std::span<double> out) const {
    x.read_row(j, out);
  }
  [[nodiscard]] fault::FaultLog take_log() { return {}; }
};

/// Per-thread fault injector over a SharedVector (scalar lane) or a
/// SharedMultiVector (batch lane). All state is thread-local; every
/// decision is a FaultClock hash of (seed, thread, iteration[, row]), so
/// the injected sequence is independent of how the OS interleaves the
/// threads — and of the batch width: a decision is ONE decision per row
/// per iteration applied to all k lanes. A stale window freezes k-wide
/// ghost rows, a bit flip corrupts the one shared a_ij every lane reads,
/// and a crash with state reset rewrites whole rows of x from x0.
template <class Shared, class Dense>
class ActiveFaults {
 public:
  static constexpr bool enabled = true;

  ActiveFaults(const CsrMatrix& a, const Dense& x0,
               const fault::FaultPlan* plan, index_t thread, index_t lo,
               index_t hi, Shared& x)
      : clock_(plan->seed), x0_(&x0), x_(&x), thread_(thread), lo_(lo),
        hi_(hi), width_(static_cast<std::size_t>(lane_width(x))) {
    for (const auto& s : plan->stragglers) {
      if (s.actor == thread) straggler_ = &s;
    }
    for (const auto& s : plan->stale_reads) {
      if (s.actor == thread || s.actor == -1) stale_ = &s;
    }
    for (const auto& s : plan->crashes) {
      if (s.actor == thread) crash_ = &s;
    }
    for (const auto& s : plan->bit_flips) {
      if (s.actor == thread || s.actor == -1) flips_.push_back(&s);
    }
    if (stale_ != nullptr) {
      // The off-block columns this thread's rows read — the "ghost layer"
      // a stale window freezes. Own-block reads (including the in-place
      // Gauss-Seidel sweep) always see live values.
      for (index_t i = lo; i < hi; ++i) {
        for (const index_t j : a.row_cols(i)) {
          if (j < lo || j >= hi) ghost_cols_.push_back(j);
        }
      }
      std::sort(ghost_cols_.begin(), ghost_cols_.end());
      ghost_cols_.erase(std::unique(ghost_cols_.begin(), ghost_cols_.end()),
                        ghost_cols_.end());
      ghost_values_.resize(ghost_cols_.size() * width_);
      ghost_versions_.assign(ghost_cols_.size(), 0);
    }
  }

  /// Straggler stall, crash-and-recover, and stale-window bookkeeping, in
  /// that order, at the top of local iteration `iter`.
  void begin_iteration(index_t iter) {
    iter_ = iter;
    if (straggler_ != nullptr) {
      const bool on =
          fault::duty_active(straggler_->period, straggler_->duty, iter);
      if (on && !straggler_on_) {
        log_.push_back({fault::FaultKind::kStragglerOn, thread_, iter, 0, 0});
      }
      straggler_on_ = on;
      if (on) {
        spin_wait_us(straggler_->extra_delay_us);
        stalled_us_ += straggler_->extra_delay_us;
      }
    }
    if (crash_ != nullptr && !crashed_ && iter >= crash_->crash_iteration) {
      // A crash in shared memory is a worker that stops participating for
      // dead_seconds and then resumes — optionally from the initial guess
      // on its rows (lost memory). The blocking wait is exactly that: no
      // relaxations, no flag updates, neighbors keep reading its last
      // published values.
      crashed_ = true;
      log_.push_back({fault::FaultKind::kCrash, thread_, iter, 0, 0});
      spin_wait_us(crash_->dead_seconds * 1e6);
      stalled_us_ += crash_->dead_seconds * 1e6;
      if (crash_->reset_state_on_recovery) {
        // This injector belongs to the thread owning rows [lo_, hi_), so
        // the sole-writer role on x holds here by the partition contract.
        x_->writer_role().assert_held();
        for (index_t i = lo_; i < hi_; ++i) reset_row(*x_, *x0_, i);
        // The write went behind any thread-private mirror of the own rows;
        // the blocked kernel path polls consume_state_reset() and reloads.
        state_reset_ = true;
      }
      log_.push_back({fault::FaultKind::kRecover, thread_, iter, 0, 0});
    }
    if (stale_ != nullptr) {
      const bool on = fault::duty_active(stale_->period, stale_->duty, iter);
      if (on && !stale_on_) {
        log_.push_back({fault::FaultKind::kStaleWindowOn, thread_, iter, 0, 0});
        for (std::size_t g = 0; g < ghost_cols_.size(); ++g) {
          ghost_versions_[g] = snapshot_row(*x_, ghost_cols_[g],
                                            ghost_values_.data() + g * width_);
        }
      }
      stale_on_ = on;
    }
  }

  /// True exactly once after a crash recovery rewrote this thread's rows of
  /// the shared x from the initial guess (lost memory). Consuming clears it.
  [[nodiscard]] bool consume_state_reset() {
    return std::exchange(state_reset_, false);
  }

  /// Transient bit flip for this (iteration, row): returns true and fills
  /// `out` when one off-diagonal entry should be read corrupted.
  bool flip(index_t row, std::span<const index_t> cols,
            std::span<const double> vals, FlippedEntry& out) {
    for (const fault::BitFlipSpec* s : flips_) {
      if (iter_ < s->first_iteration || iter_ >= s->last_iteration) continue;
      if (!clock_.bernoulli(s->probability, fault::FaultClock::kBitFlipTrigger,
                            static_cast<std::uint64_t>(thread_),
                            static_cast<std::uint64_t>(iter_),
                            static_cast<std::uint64_t>(row))) {
        continue;
      }
      std::size_t off_diag = 0;
      for (const index_t j : cols) off_diag += (j != row) ? 1 : 0;
      if (off_diag == 0) continue;
      const std::uint64_t target =
          clock_.pick(off_diag, fault::FaultClock::kBitFlipEntry,
                      static_cast<std::uint64_t>(thread_),
                      static_cast<std::uint64_t>(iter_),
                      static_cast<std::uint64_t>(row));
      std::uint64_t seen = 0;
      std::size_t entry = 0;
      for (std::size_t p = 0; p < cols.size(); ++p) {
        if (cols[p] == row) continue;
        if (seen++ == target) {
          entry = p;
          break;
        }
      }
      const int bit =
          s->bit >= 0
              ? s->bit
              : static_cast<int>(clock_.pick(
                    52, fault::FaultClock::kBitFlipBit,
                    static_cast<std::uint64_t>(thread_),
                    static_cast<std::uint64_t>(iter_),
                    static_cast<std::uint64_t>(row)));
      out.entry = entry;
      out.value = fault::flip_bit(vals[entry], bit);
      log_.push_back({fault::FaultKind::kBitFlip, thread_, iter_, row,
                      static_cast<index_t>(bit)});
      return true;
    }
    return false;
  }

  /// Reads go through the injector: inside a stale window, off-block
  /// columns come from the frozen snapshot instead of the live vector.
  [[nodiscard]] double read(const SharedVector& x, index_t j) const {
    if (stale(j)) return ghost_values_[ghost_slot(j)];
    return x.read(j);
  }

  [[nodiscard]] std::pair<double, index_t> read_versioned(
      const SharedVector& x, index_t j, std::uint64_t* retries) const {
    if (stale(j)) {
      const std::size_t g = ghost_slot(j);
      return {ghost_values_[g], ghost_versions_[g]};
    }
    return x.read_versioned(j, retries);
  }

  /// Batch lane: the k-wide row read, from the frozen row snapshot inside
  /// a stale window.
  void read_row(const SharedMultiVector& x, index_t j,
                std::span<double> out) const {
    if (stale(j)) {
      const double* src = ghost_values_.data() + ghost_slot(j) * width_;
      std::copy(src, src + width_, out.begin());
      return;
    }
    x.read_row(j, out);
  }

  /// Append-only within the thread; the metrics layer diffs its size to
  /// timestamp this iteration's injections.
  [[nodiscard]] const fault::FaultLog& log() const { return log_; }

  /// Cumulative injected stall (straggler delays + crash dead time), in
  /// microseconds; the metrics layer diffs it per iteration.
  [[nodiscard]] double stalled_us() const { return stalled_us_; }

  [[nodiscard]] fault::FaultLog take_log() { return std::move(log_); }

 private:
  [[nodiscard]] bool stale(index_t j) const {
    return stale_on_ && (j < lo_ || j >= hi_);
  }

  [[nodiscard]] std::size_t ghost_slot(index_t j) const {
    const auto it =
        std::lower_bound(ghost_cols_.begin(), ghost_cols_.end(), j);
    AJAC_DBG_CHECK(it != ghost_cols_.end() && *it == j);
    return static_cast<std::size_t>(it - ghost_cols_.begin());
  }

  fault::FaultClock clock_;
  const Dense* x0_;
  Shared* x_;
  index_t thread_;
  index_t lo_;
  index_t hi_;
  std::size_t width_;  ///< lanes per row: 1 scalar, k batch
  index_t iter_ = 0;

  const fault::StragglerSpec* straggler_ = nullptr;
  const fault::StaleReadSpec* stale_ = nullptr;
  const fault::CrashSpec* crash_ = nullptr;
  std::vector<const fault::BitFlipSpec*> flips_;

  bool straggler_on_ = false;
  bool stale_on_ = false;
  bool crashed_ = false;
  bool state_reset_ = false;
  double stalled_us_ = 0.0;

  std::vector<index_t> ghost_cols_;     ///< sorted off-block columns
  std::vector<double> ghost_values_;    ///< row-major ghosts x width snapshot
  std::vector<index_t> ghost_versions_;  ///< traced scalar runs only

  fault::FaultLog log_;
};

/// Metrics context for the default (no registry) path. Mirrors NullFaults:
/// `enabled` is false and every hook site is `if constexpr`-guarded, so the
/// uninstrumented solve carries no metrics branches, no extra timer reads,
/// and produces bitwise the results of a build without the metrics layer.
struct NullMetrics {
  static constexpr bool enabled = false;

  NullMetrics(obs::MetricsRegistry* /*reg*/, index_t /*thread*/,
              const WallTimer& /*timer*/) {}

  void iteration_begin() {}
  void spin_wait(double /*us*/) {}
  template <class Faults>
  void sync_faults(const Faults& /*faults*/) {}
  void staleness(index_t /*iter*/, index_t /*version*/) {}
  void read_mix(index_t /*local_entries*/, index_t /*ghost_entries*/) {}
  [[nodiscard]] std::uint64_t* retry_sink() { return nullptr; }
  void residual_check_begin() {}
  void residual_check_end() {}
  void iteration_end(index_t /*iter*/, index_t /*rows*/) {}
  void batch_iteration(index_t /*rows*/, index_t /*active_cols*/) {}
  void flag_update(bool /*my_done*/, index_t /*iter*/) {}
  void stop_decided() {}
  void weight_refresh() {}
  void ghost_refresh() {}
  void policy_counts(std::span<const std::uint32_t> /*counts*/) {}
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

/// Per-thread recorder writing into this thread's ActorSlot. All state is
/// thread-local; the only shared object touched is the slot, which has a
/// single writer by the registry's threading contract. Each recording
/// method claims the slot's sole-writer role (assert_held) before touching
/// it — the claim is what lets -Wthread-safety verify every slot mutation
/// flows through the owning thread's recorder.
class ActiveMetrics {
 public:
  static constexpr bool enabled = true;

  ActiveMetrics(obs::MetricsRegistry* reg, index_t thread,
                const WallTimer& timer)
      : slot_(&reg->actor(thread)), timer_(&timer) {}

  void iteration_begin() { t0_us_ = timer_->seconds() * 1e6; }

  /// Injected busy-wait (per-thread delay or straggler stall), attributed
  /// by duration rather than timed: the wait is synthetic and exact.
  void spin_wait(double us) {
    slot_->owner.assert_held();
    slot_->add(obs::Counter::kSpinWaitNs,
               static_cast<std::uint64_t>(us * 1e3));
  }

  /// Timestamp the injections the fault layer just performed. Its log is
  /// append-only within the thread, so entries past the last seen size are
  /// this iteration's; they become timeline instants (arg0 = the log
  /// entry's detail field: row for bit flips, 0 otherwise).
  template <class Faults>
  void sync_faults(const Faults& faults) {
    if constexpr (Faults::enabled) {
      slot_->owner.assert_held();
      const double stalled = faults.stalled_us();
      if (stalled > seen_stall_us_) {
        slot_->add(obs::Counter::kSpinWaitNs,
                   static_cast<std::uint64_t>((stalled - seen_stall_us_) *
                                              1e3));
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
  /// counter adds per iteration, nothing per entry. The reference path
  /// leaves both lanes at zero.
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

/// Telemetry-stream context for the default (no hub) path. Like the other
/// Null hooks every call site is `if constexpr (Stream::enabled)`-guarded,
/// so this instantiation is the pre-telemetry solver verbatim — including
/// the step-3 norm accumulation, which is only split into own/foreign
/// partial sums on the streaming instantiation (results stay bitwise
/// identical to a build without telemetry at all).
struct NullStream {
  static constexpr bool enabled = false;

  NullStream(obs::TelemetryHub* /*hub*/, index_t /*thread*/,
             const WallTimer& /*timer*/) {}

  [[nodiscard]] bool due(index_t /*iter*/) const { return false; }
  void weight_refresh() {}
  void publish(index_t /*iter*/, index_t /*rows*/, double /*own_norm*/,
               std::uint64_t /*draws*/) {}
  void finish(index_t /*iter*/, index_t /*rows*/, double /*own_norm*/,
              std::uint64_t /*draws*/) {}
};

/// Per-thread beacon publisher. Owns (claims) this thread's EventRing via
/// the hub's one-ring-per-actor contract; publish() is wait-free and
/// touches nothing shared but the ring, so the observed solve's memory
/// traffic gains only a strided handful of atomic stores.
class ActiveStream {
 public:
  static constexpr bool enabled = true;

  ActiveStream(obs::TelemetryHub* hub, index_t thread,
               const WallTimer& timer)
      : ring_(&hub->ring(thread)),
        timer_(&timer),
        stride_(std::max<index_t>(1, hub->options().beacon_stride)) {}

  /// True on iterations that should publish (iter is 1-based here: the
  /// call sites test after `++iter`).
  [[nodiscard]] bool due(index_t iter) const { return iter % stride_ == 0; }

  void weight_refresh() { ++weight_refreshes_; }

  void publish(index_t iter, index_t rows, double own_norm,
               std::uint64_t draws) {
    obs::Beacon b;
    b.ts_us = timer_->seconds() * 1e6;
    b.iteration = iter;
    b.relaxations =
        static_cast<std::uint64_t>(iter) * static_cast<std::uint64_t>(rows);
    b.own_residual_1 = own_norm;
    b.policy_draws = draws;
    b.weight_refreshes = weight_refreshes_;
    ring_->writer.assert_held();
    ring_->publish(b);
    last_iter_ = iter;
  }

  /// Final beacon at loop exit, so the monitor always sees the terminal
  /// state; skipped when the last iteration already published at stride.
  void finish(index_t iter, index_t rows, double own_norm,
              std::uint64_t draws) {
    if (iter == last_iter_ || iter <= 0) return;
    publish(iter, rows, own_norm, draws);
  }

 private:
  obs::EventRing* ring_;
  const WallTimer* timer_;
  index_t stride_;
  index_t last_iter_ = 0;
  std::uint64_t weight_refreshes_ = 0;
};

}  // namespace ajac::runtime::detail
