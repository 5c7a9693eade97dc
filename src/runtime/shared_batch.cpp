// Batched (multi-RHS) shared-memory Jacobi: the batch lane of the shared
// worker (shared_worker.hpp), k independent systems sharing one matrix
// traversal (see solve_shared_batch in shared_jacobi.hpp).
//
// The worker runs the same control plane as the single-RHS call, with its
// per-column termination protocol at full width: per-(thread, column)
// flags, a per-column verified stop, and a per-column freeze. This lane
// keeps the k columns row-major in a SharedMultiVector and drives the
// `*_batch` kernels (blocked_kernels.hpp), where one CSR gather feeds k
// unit-stride SIMD lanes; each lane evaluates the scalar lane's
// expressions on the same values in the same order, so column c of a
// synchronous (or 1-thread asynchronous) batch is bitwise the single-RHS
// solve of column c. The scalar-only features (traces, histories, the GS
// sweep, kSellCS, fp32 ghosts) are rejected at entry.

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "ajac/obs/metrics.hpp"
#include "ajac/obs/stream.hpp"
#include "ajac/runtime/blocked_kernels.hpp"
#include "ajac/runtime/shared_jacobi.hpp"
#include "ajac/runtime/shared_multi_vector.hpp"
#include "ajac/sparse/blocked_csr.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/multi_vector.hpp"
#include "ajac/util/annotate.hpp"
#include "ajac/util/check.hpp"
#include "shared_worker.hpp"

namespace ajac::runtime {

namespace {

using detail::RunRecord;
using detail::Setup;

/// k right-hand sides in a SharedMultiVector (see shared_worker.hpp for the
/// lane-policy interface).
struct BatchLane {
  using Dense = MultiVector;
  using Shared = SharedMultiVector;
  using Result = SharedBatchResult;
  static constexpr auto kConvention =
      obs::ResidualConvention::kUpperBoundMax;

  static void check_inputs(const MultiVector& b, const MultiVector& x0,
                           index_t n) {
    AJAC_CHECK(b.num_rows() == n && x0.num_rows() == n);
    AJAC_CHECK(b.num_cols() >= 1);
    AJAC_CHECK_MSG(b.num_cols() == x0.num_cols(),
                   "b and x0 must carry the same number of columns");
  }

  static void check_options(const SharedOptions& opts) {
    AJAC_CHECK_MSG(!opts.record_trace,
                   "read-version traces are single-RHS only (the batch "
                   "seqlock is per row; use solve_shared for Sec. IV trace "
                   "runs)");
    AJAC_CHECK_MSG(!opts.record_history,
                   "per-thread residual histories are single-RHS only; batch "
                   "runs report per-column results instead");
    AJAC_CHECK_MSG(!opts.local_gauss_seidel,
                   "the in-place local sweep has no batched kernel");
    AJAC_CHECK_MSG(opts.kernel != KernelKind::kSellCS,
                   "the bandwidth-engineered kSellCS data plane has no "
                   "batched kernel (use kBlocked for multi-RHS runs)");
    AJAC_CHECK_MSG(opts.ghost_precision == GhostPrecision::kFp64,
                   "fp32 ghost publication is kSellCS-only, which the batch "
                   "path does not support");
  }

  static index_t width(const MultiVector& b) { return b.num_cols(); }
  static std::span<const double> values(const MultiVector& v) {
    return v.raw();
  }
  static SharedMultiVector make_shared(index_t n, index_t k, bool traced) {
    return SharedMultiVector(n, k, traced);
  }
  static MultiVector make_dense(index_t n, index_t k) {
    return MultiVector(n, k);
  }
  static MultiVector snapshot(const SharedMultiVector& x) {
    MultiVector out(x.num_rows(), x.num_cols());
    x.snapshot(out);
    return out;
  }

  /// One CSR traversal for all k columns; column c of r is bitwise
  /// CsrMatrix::residual of column c and its norm bitwise vec::norm1.
  static void residual(const CsrMatrix& a, const MultiVector& x,
                       const MultiVector& b, MultiVector& r,
                       std::span<double> norms) {
    mv::residual(a, x, b, r);
    mv::colwise_norm1(r, norms);
  }

  /// Polish works on one extracted column; only columns that need polish
  /// are ever copied out.
  template <class F>
  static void with_column(MultiVector& x, const MultiVector& r,
                          const MultiVector& b, index_t c, F&& f) {
    Vector xc = x.column(c);
    Vector rc = r.column(c);
    const Vector bc = b.column(c);
    f(std::span<double>(xc), std::span<double>(rc),
      std::span<const double>(bc));
    x.set_column(c, xc);
  }

  /// kUpperBoundMax: worst still-relative lane, max over columns of
  /// (own-block column norm / column r0 norm).
  static double beacon(std::span<const double> own,
                       std::span<const double> r0_norm) {
    double worst = 0.0;
    for (std::size_t c = 0; c < own.size(); ++c) {
      worst = std::max(worst, own[c] / r0_norm[c]);
    }
    return worst;
  }
  static double beacon_scale(std::span<const double> /*r0_norm*/) {
    return 1.0;
  }

  template <class Metrics>
  static void count_lanes(Metrics& metrics, index_t rows,
                          index_t active_cols) {
    if constexpr (Metrics::enabled) metrics.batch_iteration(rows, active_cols);
  }

  static SharedBatchResult make_result(RunRecord<MultiVector>&& run,
                                       const Setup<BatchLane>& s) {
    SharedBatchResult result;
    result.x = std::move(run.x);
    result.seconds = run.seconds;
    result.converged = std::move(run.verdict.converged);
    result.final_rel_residual_1 = std::move(run.verdict.final_rel_residual_1);
    result.stop_iteration = std::move(run.stop_iteration);
    result.polish_sweeps = std::move(run.verdict.polish_sweeps);
    result.relaxations_per_column = std::move(run.relaxations_per_column);
    for (const index_t sum : result.relaxations_per_column) {
      result.total_relaxations += sum;
      if (s.opts.metrics != nullptr) {
        obs::ActorSlot& slot0 = s.opts.metrics->actor(0);
        slot0.owner.assert_held();  // post-join epilogue
        slot0.record(obs::Hist::kColumnRelaxations,
                     static_cast<std::uint64_t>(sum));
      }
    }
    result.iterations_per_thread = std::move(run.iterations_per_thread);
    result.fault_events = std::move(run.fault_events);
    return result;
  }

  template <class Faults, class Metrics>
  class Worker;
};

/// Per-thread data plane of the batch lane: the k-wide own-block mirror and
/// k lanes of scratch each, sized before the loop so the hot path performs
/// no allocation. Every method claims the sole-writer roles the partition
/// gives this thread (claims, not locks).
template <class Faults, class Metrics>
class BatchLane::Worker {
 public:
  Worker(const Setup<BatchLane>& s, index_t t, SharedMultiVector& x,
         SharedMultiVector& r, Faults& faults, Metrics& /*metrics*/,
         std::vector<model::RelaxationEvent>& /*events*/)
      : s_(s), blk_(s.blocked.block(t)), k_(s.b.num_cols()), x_(x), r_(r),
        faults_(faults), acc_(static_cast<std::size_t>(k_)),
        ghost_(acc_.size()), rrow_(acc_.size()), xrow_(acc_.size()) {
    refresh_own();
  }

  void refresh_own() {
    own_.owner.assert_held();
    refresh_own_block_batch(blk_, x_, own_);
  }

  /// Lane-max |true residual| of own row i from an x snapshot, bypassing
  /// faults.
  double true_residual(index_t i) {
    const auto [cols, vals] = s_.a.row(i);
    const double* br = s_.b.row(i);
    std::copy(br, br + k_, rrow_.begin());
    for (std::size_t p = 0; p < cols.size(); ++p) {
      x_.read_row(cols[p], xrow_);
      for (std::size_t c = 0; c < rrow_.size(); ++c) {
        rrow_[c] -= vals[p] * xrow_[c];
      }
    }
    double m = 0.0;
    for (const double v : rrow_) m = std::max(m, std::abs(v));
    return m;
  }

  /// One sampled draw: relax own row i on every lane and commit it in
  /// place with the per-column freeze blend.
  void relax_drawn(index_t i, index_t /*iter*/,
                   std::span<const double> active) {
    own_.owner.assert_held();
    x_.writer_role().assert_held();
    r_.writer_role().assert_held();
    relax_row_sampled_batch(blk_, s_.a, s_.b, own_, x_, faults_, r_, active,
                            acc_, ghost_, i);
  }

  /// Step 1: the k-lane residual of every own row, published to r.
  void relax(index_t /*iter*/) {
    own_.owner.assert_held();
    r_.writer_role().assert_held();
    relax_interior_batch(blk_, s_.a, s_.b, own_, faults_, r_, acc_);
    relax_boundary_batch(blk_, s_.a, s_.b, own_, x_, faults_, r_, acc_,
                         ghost_);
  }

  /// Step 2: masked commit — lane c moves only while active[c] != 0.0.
  void commit(std::span<const double> active) {
    own_.owner.assert_held();
    x_.writer_role().assert_held();
    commit_block_batch(blk_, own_, x_, r_, active, rrow_);
  }

  /// Step 3: per-column 1-norms of the whole shared residual, rows
  /// ascending (bitwise the scalar scan per column); with `own` non-empty
  /// the own rows' terms are mirrored into the beacon accumulators.
  void scan(std::span<double> norms, std::span<double> own) {
    const index_t n = s_.a.num_rows();
    std::fill(norms.begin(), norms.end(), 0.0);
    if (own.empty()) {
      for (index_t i = 0; i < n; ++i) {
        r_.read_row(i, rrow_);
#pragma omp simd
        for (index_t c = 0; c < k_; ++c) {
          norms[static_cast<std::size_t>(c)] +=
              std::abs(rrow_[static_cast<std::size_t>(c)]);
        }
      }
      return;
    }
    std::fill(own.begin(), own.end(), 0.0);
    const index_t lo = blk_.lo;
    const index_t hi = blk_.hi;
    for (index_t i = 0; i < n; ++i) {
      r_.read_row(i, rrow_);
      const bool mine = i >= lo && i < hi;
#pragma omp simd
      for (index_t c = 0; c < k_; ++c) {
        const double v = std::abs(rrow_[static_cast<std::size_t>(c)]);
        norms[static_cast<std::size_t>(c)] += v;
        if (mine) own[static_cast<std::size_t>(c)] += v;
      }
    }
  }

 private:
  const Setup<BatchLane>& s_;
  const BlockedCsr::Block& blk_;
  index_t k_;
  SharedMultiVector& x_;
  SharedMultiVector& r_;
  Faults& faults_;
  std::vector<double> acc_;
  std::vector<double> ghost_;
  std::vector<double> rrow_;
  std::vector<double> xrow_;  ///< true_residual scratch
  OwnBlockBatchState own_;
};

}  // namespace

SharedBatchResult solve_shared_batch(const CsrMatrix& a, const MultiVector& b,
                                     const MultiVector& x0,
                                     const SharedOptions& opts) {
  return detail::solve<BatchLane>(a, b, x0, opts);
}

}  // namespace ajac::runtime
