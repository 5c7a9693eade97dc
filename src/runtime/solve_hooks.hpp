#pragma once
// Internal fault and telemetry hook contexts of the shared-memory worker
// (shared_worker.hpp), which runs both the single-RHS and the batched
// solve. Not installed: this header lives next to the runtime translation
// units and is not part of the public ajac/runtime interface. The metrics
// recorders the mesh shares live in ajac/runtime/control_plane.hpp.
//
// Each hook pair follows the same pattern: a Null context whose `enabled`
// is false, and an Active context holding thread-local state. Every
// control-plane hook site is `if constexpr`-guarded, so the unfaulted /
// unstreamed instantiation compiles to the plain solver, branch-free; a
// Null context only carries the hooks the data-plane kernels call
// unguarded (the fault reads and the bit-flip probe).
// The fault injector serves both lanes: its FaultClock coordinates (seed,
// thread, iteration, row) do not involve the lane width, so a fault
// decision is ONE decision per row per iteration applied to all k lanes —
// determinism does not depend on k.

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ajac/fault/actor_schedule.hpp"
#include "ajac/fault/fault_plan.hpp"
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
};

/// Per-thread fault injector over a SharedVector (scalar lane) or a
/// SharedMultiVector (batch lane). The straggler / crash / stale-window
/// schedule is fault::ActorSchedule, the one the mesh agents run too; this
/// injector adds the shared-memory payloads and the bit flips. All state is
/// thread-local; every decision is a FaultClock hash of (seed, thread,
/// iteration[, row]), so the injected sequence is independent of how the
/// OS interleaves the threads — and of the batch width: a decision is ONE
/// decision per row per iteration applied to all k lanes. A stale window
/// freezes k-wide ghost rows, a bit flip corrupts the one shared a_ij every
/// lane reads, and a crash with state reset rewrites whole rows of x from
/// x0.
template <class Shared, class Dense>
class ActiveFaults {
 public:
  static constexpr bool enabled = true;

  ActiveFaults(const CsrMatrix& a, const Dense& x0,
               const fault::FaultPlan* plan, index_t thread, index_t lo,
               index_t hi, Shared& x)
      : schedule_(*plan, thread), x0_(&x0), x_(&x), lo_(lo), hi_(hi),
        width_(static_cast<std::size_t>(lane_width(x))) {
    for (const auto& s : plan->bit_flips) {
      if (s.actor == thread || s.actor == -1) flips_.push_back(&s);
    }
    if (schedule_.has_stale_window()) {
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

  /// The schedule step at the top of local iteration `iter`, then its
  /// shared-memory payloads: a state reset rewrites the own rows of x, a
  /// stale window snapshots the ghosts.
  void begin_iteration(index_t iter) {
    const fault::ScheduleStep step = schedule_.begin_iteration(iter);
    if (step.reset_state) {
      // This injector belongs to the thread owning rows [lo_, hi_), so
      // the sole-writer role on x holds here by the partition contract.
      x_->writer_role().assert_held();
      for (index_t i = lo_; i < hi_; ++i) reset_row(*x_, *x0_, i);
      // The write went behind any thread-private mirror of the own rows;
      // the blocked kernel path polls consume_state_reset() and reloads.
      state_reset_ = true;
    }
    if (step.stale_window_entered) {
      for (std::size_t g = 0; g < ghost_cols_.size(); ++g) {
        ghost_versions_[g] = snapshot_row(*x_, ghost_cols_[g],
                                          ghost_values_.data() + g * width_);
      }
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
    const fault::FaultClock& clock = schedule_.clock();
    const auto thread = static_cast<std::uint64_t>(schedule_.actor());
    const index_t iter = schedule_.iteration();
    const auto it = static_cast<std::uint64_t>(iter);
    const auto r = static_cast<std::uint64_t>(row);
    for (const fault::BitFlipSpec* s : flips_) {
      if (iter < s->first_iteration || iter >= s->last_iteration) continue;
      if (!clock.bernoulli(s->probability, fault::FaultClock::kBitFlipTrigger,
                           thread, it, r)) {
        continue;
      }
      std::size_t off_diag = 0;
      for (const index_t j : cols) off_diag += (j != row) ? 1 : 0;
      if (off_diag == 0) continue;
      const std::uint64_t target =
          clock.pick(off_diag, fault::FaultClock::kBitFlipEntry, thread, it, r);
      std::uint64_t seen = 0;
      std::size_t entry = 0;
      for (std::size_t p = 0; p < cols.size(); ++p) {
        if (cols[p] == row) continue;
        if (seen++ == target) {
          entry = p;
          break;
        }
      }
      const int bit = s->bit >= 0 ? s->bit
                                  : static_cast<int>(clock.pick(
                                        52, fault::FaultClock::kBitFlipBit,
                                        thread, it, r));
      out.entry = entry;
      out.value = fault::flip_bit(vals[entry], bit);
      schedule_.record(fault::FaultKind::kBitFlip, iter, row,
                       static_cast<index_t>(bit));
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

  /// The composed schedule: its log (with this injector's own kinds) and
  /// stall total feed the metrics layer and the merged run log.
  [[nodiscard]] fault::ActorSchedule& schedule() { return schedule_; }

 private:
  [[nodiscard]] bool stale(index_t j) const {
    return schedule_.stale_window_active() && (j < lo_ || j >= hi_);
  }

  [[nodiscard]] std::size_t ghost_slot(index_t j) const {
    const auto it =
        std::lower_bound(ghost_cols_.begin(), ghost_cols_.end(), j);
    AJAC_DBG_CHECK(it != ghost_cols_.end() && *it == j);
    return static_cast<std::size_t>(it - ghost_cols_.begin());
  }

  fault::ActorSchedule schedule_;
  const Dense* x0_;
  Shared* x_;
  index_t lo_;
  index_t hi_;
  std::size_t width_;  ///< lanes per row: 1 scalar, k batch
  std::vector<const fault::BitFlipSpec*> flips_;
  bool state_reset_ = false;

  std::vector<index_t> ghost_cols_;     ///< sorted off-block columns
  std::vector<double> ghost_values_;    ///< row-major ghosts x width snapshot
  std::vector<index_t> ghost_versions_;  ///< traced scalar runs only
};

/// Telemetry-stream context for the default (no hub) path. Every call
/// site is `if constexpr (Stream::enabled)`-guarded, so this instantiation
/// is the pre-telemetry solver verbatim — including the step-3 norm
/// accumulation, which is only split into own/foreign partial sums on the
/// streaming instantiation (results stay bitwise identical to a build
/// without telemetry at all).
struct NullStream {
  static constexpr bool enabled = false;

  NullStream(obs::TelemetryHub* /*hub*/, index_t /*thread*/,
             const WallTimer& /*timer*/) {}
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
