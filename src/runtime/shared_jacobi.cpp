// Single-RHS shared-memory Jacobi: the scalar lane of the shared worker
// (shared_worker.hpp). The worker runs the control plane; this lane keeps
// one column in a SharedVector and owns the scalar-only features — read-
// version traces, residual histories, the in-place Gauss-Seidel sweep, the
// kSellCS data plane, and the fp32 ghost shadow.

#include "ajac/runtime/shared_jacobi.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "ajac/obs/metrics.hpp"
#include "ajac/obs/stream.hpp"
#include "ajac/runtime/blocked_kernels.hpp"
#include "ajac/runtime/sell_kernels.hpp"
#include "ajac/runtime/shared_vector.hpp"
#include "ajac/sparse/blocked_csr.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/sell_csr.hpp"
#include "ajac/sparse/vector_ops.hpp"
#include "ajac/util/annotate.hpp"
#include "ajac/util/check.hpp"
#include "shared_worker.hpp"

namespace ajac::runtime {

namespace {

using detail::RunRecord;
using detail::Setup;

/// One right-hand side in a SharedVector (see shared_worker.hpp for the
/// lane-policy interface).
struct ScalarLane {
  using Dense = Vector;
  using Shared = SharedVector;
  using Result = SharedResult;
  static constexpr auto kConvention = obs::ResidualConvention::kOwnBlockSum;

  static void check_inputs(const Vector& b, const Vector& x0, index_t n) {
    AJAC_CHECK(b.size() == static_cast<std::size_t>(n));
    AJAC_CHECK(x0.size() == static_cast<std::size_t>(n));
  }

  static void check_options(const SharedOptions& opts) {
    AJAC_CHECK_MSG(!(opts.local_gauss_seidel && opts.synchronous),
                   "the in-place local sweep is only meaningful without "
                   "barriers (asynchronous mode)");
    AJAC_CHECK_MSG(!(opts.local_gauss_seidel && opts.record_trace),
                   "read-version traces assume the Jacobi local sweep");
    AJAC_CHECK_MSG(!(is_sampled(opts.policy) && opts.local_gauss_seidel),
                   "sampled row policies define their own in-place schedule; "
                   "local_gauss_seidel does not compose with them");
    const bool sellcs = opts.kernel == KernelKind::kSellCS;
    AJAC_CHECK_MSG(!(sellcs && opts.record_trace),
                   "kSellCS amortizes ghost reads into per-iteration buffer "
                   "refreshes; per-read version traces need kBlocked");
    AJAC_CHECK_MSG(!(sellcs && opts.local_gauss_seidel),
                   "the in-place local sweep reads its own fresh updates "
                   "row-by-row; the SELL repack relaxes rows out of order "
                   "(use kBlocked)");
    AJAC_CHECK_MSG(!(sellcs && is_sampled(opts.policy)),
                   "sampled row policies relax drawn rows in place; the SELL "
                   "interior relaxes whole chunks (use kBlocked)");
    AJAC_CHECK_MSG(
        !(opts.ghost_precision == GhostPrecision::kFp32 && !sellcs),
        "fp32 ghost publication is part of the kSellCS data plane; the "
        "blocked kernels read the fp64 vector per entry");
  }

  static index_t width(const Vector& /*b*/) { return 1; }
  static std::span<const double> values(const Vector& v) { return v; }
  static SharedVector make_shared(index_t n, index_t /*k*/, bool traced) {
    return SharedVector(n, traced);
  }
  static Vector make_dense(index_t n, index_t /*k*/) {
    return Vector(static_cast<std::size_t>(n));
  }
  static Vector snapshot(const SharedVector& x) {
    Vector out(x.size());
    x.snapshot(out);
    return out;
  }

  static void residual(const CsrMatrix& a, const Vector& x, const Vector& b,
                       Vector& r, std::span<double> norms) {
    a.residual(x, b, r);
    norms[0] = vec::norm1(r);
  }

  template <class F>
  static void with_column(Vector& x, Vector& r, const Vector& b,
                          index_t /*c*/, F&& f) {
    f(std::span<double>(x), std::span<double>(r), std::span<const double>(b));
  }

  /// kOwnBlockSum: the beacon carries the raw own-block 1-norm and the hub
  /// divides by the run's r0 norm.
  static double beacon(std::span<const double> own,
                       std::span<const double> /*r0_norm*/) {
    return own[0];
  }
  static double beacon_scale(std::span<const double> r0_norm) {
    return r0_norm[0];
  }

  template <class Metrics>
  static void count_lanes(Metrics& /*metrics*/, index_t /*rows*/,
                          index_t /*active_cols*/) {}

  static SharedResult make_result(RunRecord<Vector>&& run,
                                  const Setup<ScalarLane>& s) {
    SharedResult result;
    result.x = std::move(run.x);
    result.seconds = run.seconds;
    result.converged = run.verdict.converged[0];
    result.final_rel_residual_1 = run.verdict.final_rel_residual_1[0];
    result.polish_sweeps = run.verdict.polish_sweeps[0];
    result.iterations_per_thread = std::move(run.iterations_per_thread);
    for (index_t t = 0; t < s.opts.num_threads; ++t) {
      result.total_relaxations +=
          result.iterations_per_thread[static_cast<std::size_t>(t)] *
          s.part.part_size(t);
    }
    result.history = merge_histories(run.histories);
    if (s.opts.record_trace) {
      result.trace = merge_traces(s.a.num_rows(), run.events);
    }
    result.fault_events = std::move(run.fault_events);
    return result;
  }

  template <class Faults, class Metrics>
  class Worker;
};

/// Per-thread data plane of the scalar lane. The partition makes this
/// thread the sole writer of rows [lo, hi) of x and r and of its private
/// mirror: every method claims the roles its kernel calls require (claims,
/// not locks — ownership is established by the partition). commit_block
/// reads the residual back from the shared r: the thread is its sole writer
/// on these rows, so the value published in step 1 reads back bit-exact.
template <class Faults, class Metrics>
class ScalarLane::Worker {
 public:
  Worker(const Setup<ScalarLane>& s, index_t t, SharedVector& x,
         SharedVector& r, Faults& faults, Metrics& metrics,
         std::vector<model::RelaxationEvent>& events)
      : s_(s), blk_(s.blocked.block(t)), x_(x), r_(r), faults_(faults),
        metrics_(metrics), events_(events) {
    // Thread-private mirror of the own rows; kSellCS adds the SELL
    // interior view and the dense ghost buffer.
    refresh_own();
    if (s.sell != nullptr) {
      sblk_ = &s.sell->block(t);
      ghosts_.assign(blk_.ghost_cols.size(), 0.0);
    }
  }

  /// (Re)load the own-block mirror from the shared x.
  void refresh_own() {
    own_.owner.assert_held();
    refresh_own_block(blk_, x_, own_);
  }

  /// |true residual| of own row i from an x snapshot, bypassing faults.
  double true_residual(index_t i) const {
    const auto [cols, vals] = s_.a.row(i);
    double acc = s_.b[i];
    for (std::size_t p = 0; p < cols.size(); ++p) {
      acc -= vals[p] * x_.read_snapshot(cols[p]);
    }
    return std::abs(acc);
  }

  /// One sampled draw: relax own row i and commit it in place.
  void relax_drawn(index_t i, index_t iter,
                   std::span<const double> /*active*/) {
    own_.owner.assert_held();
    x_.writer_role().assert_held();
    r_.writer_role().assert_held();
    if (s_.opts.record_trace) {
      relax_row_sampled_traced(blk_, s_.a, s_.b, own_, x_, faults_, metrics_,
                               iter, r_, events_, i);
    } else {
      relax_row_sampled(blk_, s_.a, s_.b, own_, x_, r_, faults_, i);
    }
  }

  /// Step 1: the residual of every own row (published to r), or the whole
  /// in-place Gauss-Seidel sweep.
  void relax(index_t iter) {
    own_.owner.assert_held();
    x_.writer_role().assert_held();
    r_.writer_role().assert_held();
    const SharedOptions& opts = s_.opts;
    if (opts.local_gauss_seidel) {
      relax_block_gs(blk_, s_.a, s_.b, own_, x_, r_, faults_);
    } else if (opts.record_trace) {
      relax_traced(blk_, s_.a, s_.b, own_, x_, faults_, metrics_, iter, r_,
                   events_);
    } else if (sblk_ != nullptr) {
      // kSellCS: refresh the dense ghost buffer once (from the fp32 shadow
      // when one exists, else the authoritative fp64 vector), then relax
      // the SELL-packed interior and the buffered boundary.
      if (s_.shadow != nullptr) {
        refresh_ghosts_f32(blk_, *s_.shadow, ghosts_);
      } else {
        refresh_ghosts(blk_, x_, ghosts_);
      }
      if constexpr (Metrics::enabled) metrics_.ghost_refresh();
      relax_interior_sell(*sblk_, s_.b, own_, r_);
      relax_boundary_buffered(blk_, s_.b, own_, ghosts_, r_);
    } else {
      relax_interior(blk_, s_.a, s_.b, own_, faults_, r_);
      relax_boundary(blk_, s_.a, s_.b, own_, x_, faults_, r_);
    }
  }

  /// Step 2: commit `x + inv_diag * r` on the own rows (the GS sweep
  /// already committed in place). The mask is not consulted: the scalar
  /// column's verified stop is the global stop.
  void commit(std::span<const double> /*active*/) {
    if (s_.opts.local_gauss_seidel) return;
    own_.owner.assert_held();
    x_.writer_role().assert_held();
    commit_block(blk_, own_, x_, r_);
    if (s_.shadow != nullptr) {
      // fp32 ghost runs: republish the freshly committed own rows to the
      // float shadow neighbours refresh from. The partition makes this
      // thread the shadow's sole writer on these rows.
      s_.shadow->writer_role().assert_held();
      publish_shadow(blk_, own_, *s_.shadow);
    }
  }

  /// Step 3: 1-norm of the whole shared residual (racy reads). With `own`
  /// non-empty (streamed runs) the own-block terms are mirrored into a
  /// second accumulator for the beacon: every term still lands in the norm
  /// in the original row order, so the streamed check is bitwise the
  /// unstreamed one.
  void scan(std::span<double> norms, std::span<double> own) const {
    const index_t n = s_.a.num_rows();
    double norm = 0.0;
    if (own.empty()) {
      for (index_t i = 0; i < n; ++i) norm += std::abs(r_.read(i));
    } else {
      const index_t lo = blk_.lo;
      const index_t hi = blk_.hi;
      double own_sum = 0.0;
      for (index_t i = 0; i < lo; ++i) norm += std::abs(r_.read(i));
      for (index_t i = lo; i < hi; ++i) {
        const double v = std::abs(r_.read(i));
        norm += v;
        own_sum += v;
      }
      for (index_t i = hi; i < n; ++i) norm += std::abs(r_.read(i));
      own[0] = own_sum;
    }
    norms[0] = norm;
  }

 private:
  const Setup<ScalarLane>& s_;
  const BlockedCsr::Block& blk_;
  SharedVector& x_;
  SharedVector& r_;
  Faults& faults_;
  Metrics& metrics_;
  std::vector<model::RelaxationEvent>& events_;
  const SellCsr::Block* sblk_ = nullptr;  ///< kSellCS only
  OwnBlockState own_;
  std::vector<double> ghosts_;  ///< kSellCS dense ghost buffer
};

}  // namespace

SharedResult solve_shared(const CsrMatrix& a, const Vector& b,
                          const Vector& x0, const SharedOptions& opts) {
  return detail::solve<ScalarLane>(a, b, x0, opts);
}

}  // namespace ajac::runtime
