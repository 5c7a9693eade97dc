#include "ajac/mesh/mesh_jacobi.hpp"

#include <sched.h>

#include <algorithm>
#include <barrier>
#include <cmath>
#include <deque>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include "ajac/fault/actor_schedule.hpp"
#include "ajac/mesh/spsc_queue.hpp"
#include "ajac/mesh/topology.hpp"
#include "ajac/obs/metrics.hpp"
#include "ajac/runtime/control_plane.hpp"
#include "ajac/runtime/shared_vector.hpp"
#include "ajac/solvers/stationary.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/validate.hpp"
#include "ajac/sparse/vector_ops.hpp"
#include "ajac/util/annotate.hpp"
#include "ajac/util/check.hpp"
#include "ajac/util/timer.hpp"

namespace ajac::mesh {

namespace {

using runtime::MessageTotals;
using runtime::SharedVector;

/// Fault context for the default (no plan) path: `enabled` is false and
/// every hook site below is `if constexpr`-guarded, so this instantiation
/// compiles to the plain mesh driver.
struct NullMeshFaults {
  static constexpr bool enabled = false;

  template <class... Args>
  explicit NullMeshFaults(Args&&... /*unused*/) {}
};

/// Per-agent fault injector. The straggler / crash / stale-window schedule
/// is fault::ActorSchedule, the one the shared runtime's threads run, so
/// one plan injects at the same logical instants in both runtimes; this
/// injector adds the mesh payloads. Message drop / duplicate decisions are
/// keyed on (directed edge, sender's per-edge packet counter) exactly like
/// distsim, so the injected sequence is a pure function of the plan —
/// independent of scheduling.
class ActiveMeshFaults {
 public:
  static constexpr bool enabled = true;

  ActiveMeshFaults(const fault::FaultPlan* plan, index_t agent,
                   const AgentBlock& blk, const Vector& x0, Vector& x_local,
                   SharedVector& x_board)
      : schedule_(*plan, agent), blk_(&blk), x0_(&x0), x_local_(&x_local),
        x_board_(&x_board) {
    for (const auto& s : plan->message_faults) {
      if (s.sender == -1 || s.sender == agent) msg_specs_.push_back(&s);
    }
  }

  void begin_iteration(index_t iter) {
    if (!schedule_.begin_iteration(iter).reset_state) return;
    // Crash recovery with lost memory: restart the own rows from the
    // initial guess, locally and on the board (so the verified stop sees
    // the reset state). Neighbors keep their last received values until
    // the next publish. The topology makes this agent the board's sole
    // writer on its rows.
    x_board_->writer_role().assert_held();
    for (const index_t i : blk_->rows) {
      (*x_local_)[i] = (*x0_)[i];
      x_board_->write(i, (*x0_)[i]);
    }
  }

  /// While active the agent skips its queue drains, freezing the ghost
  /// values in place — the message-passing realization of the shared
  /// runtime's frozen off-block snapshot.
  [[nodiscard]] bool stale_window_active() const {
    return schedule_.stale_window_active();
  }

  /// Whether the k-th packet on `edge` is dropped (kMessageDrop) or
  /// duplicated (kMessageDuplicate); a hit is logged.
  [[nodiscard]] bool message_fault(fault::FaultKind kind, std::uint64_t edge,
                                   index_t receiver, index_t k) {
    const bool drop = kind == fault::FaultKind::kMessageDrop;
    for (const fault::MessageFaultSpec* s : msg_specs_) {
      if (s->receiver >= 0 && s->receiver != receiver) continue;
      if (schedule_.clock().bernoulli(
              drop ? s->drop_probability : s->duplicate_probability,
              drop ? fault::FaultClock::kMessageDrop
                   : fault::FaultClock::kMessageDuplicate,
              edge, static_cast<std::uint64_t>(k))) {
        schedule_.record(kind, k, receiver);
        return true;
      }
    }
    return false;
  }

  /// The composed schedule: its log (with this injector's own kinds) and
  /// stall total feed the metrics layer and the merged run log.
  [[nodiscard]] fault::ActorSchedule& schedule() { return schedule_; }

 private:
  fault::ActorSchedule schedule_;
  const AgentBlock* blk_;
  const Vector* x0_;
  Vector* x_local_;
  SharedVector* x_board_;
  std::vector<const fault::MessageFaultSpec*> msg_specs_;
};

template <bool Sync, class Faults, class Metrics>
MeshResult solve_mesh_impl(const CsrMatrix& a, const Vector& b,
                           const Vector& x0, const MeshOptions& opts,
                           const MeshTopology& topo, const Vector& inv_diag,
                           const fault::FaultPlan* plan) {
  const index_t n = a.num_rows();
  const index_t na = topo.num_agents();
  const auto na_sz = static_cast<std::size_t>(na);

  // Control-plane boards (see mesh_jacobi.hpp): untraced SharedVectors
  // holding every agent's committed x and staged residual, read only by
  // the termination protocol — never by a relaxation. Untraced writes are
  // single relaxed stores, so overlapping owners committing the same row
  // are a benign last-write-wins race (and write identical values in
  // synchronous mode).
  SharedVector x_board(n, /*traced=*/false);
  SharedVector r_board(n, /*traced=*/false);
  // Single-threaded setup: momentarily the sole writer of both boards.
  x_board.writer_role().assert_held();
  r_board.writer_role().assert_held();
  x_board.init(x0);
  // The initial residual, computed once: it seeds the r board and gives
  // the norm every relative residual divides by.
  double r0_norm = 0.0;
  {
    Vector r0(static_cast<std::size_t>(n));
    a.residual(x0, b, r0);
    r_board.init(r0);
    r0_norm = vec::norm1(r0);
  }
  r0_norm = r0_norm > 0.0 ? r0_norm : 1.0;
  // The mesh is the k = 1 case of the shared runtime's termination board,
  // verifying its stops against the x board.
  runtime::TerminationBoard<Vector, SharedVector> board(
      a, b, x_board, {&r0_norm, 1}, na, opts.max_iterations, opts.tolerance);

  // One SPSC ring per directed edge, sized to the edge's boundary width.
  // deque, not vector: the ring is immovable (index atomics), and deque
  // emplaces in place without relocation.
  std::deque<SpscQueue> queues;
  for (const MeshEdge& e : topo.edges) {
    queues.emplace_back(e.rows.size(),
                        static_cast<std::size_t>(opts.queue_capacity));
  }

  MeshResult result;
  result.iterations_per_agent.assign(na_sz, 0);
  std::vector<std::vector<MeshHistoryPoint>> histories(na_sz);
  std::vector<std::vector<model::RelaxationEvent>> agent_events(na_sz);
  std::vector<fault::FaultLog> fault_logs(na_sz);
  std::vector<MessageTotals> agent_totals(na_sz);

  // Lockstep gate for the synchronous schedule (solve_shared's three
  // barriers per iteration). std::barrier is TSan-native, unlike the
  // OpenMP barriers the shared runtime has to annotate around.
  std::optional<std::barrier<>> gate;
  if constexpr (Sync) gate.emplace(static_cast<std::ptrdiff_t>(na));

  WallTimer timer;

  auto agent_main = [&](index_t t) {
    const auto ts = static_cast<std::size_t>(t);
    const AgentBlock& blk = topo.agents[ts];
    const auto own_rows = static_cast<index_t>(blk.rows.size());

    // The agent's full-length local view: own rows hold its committed
    // iterates, ghost columns hold the last applied packet values, and
    // every other entry stays at x0 (never read — the stencil of the own
    // rows touches only own + ghost columns). Full length buys free
    // support for arbitrary non-contiguous and overlapping row sets: no
    // index translation anywhere in the hot loop.
    Vector x_local = x0;
    std::vector<double> staged(blk.rows.size());
    // Per-column versions for trace mode: commit count of own rows,
    // packet-header-derived count of ghosts (disjoint sets only, so both
    // are well-defined). Sized only when tracing.
    std::vector<index_t> versions;
    if (opts.record_trace) {
      versions.assign(static_cast<std::size_t>(n), 0);
    }
    std::size_t max_width = 1;
    for (const index_t e : blk.in_edges) {
      max_width = std::max(max_width, queues[static_cast<std::size_t>(e)].width());
    }
    for (const index_t e : blk.out_edges) {
      max_width = std::max(max_width, queues[static_cast<std::size_t>(e)].width());
    }
    std::vector<double> packet_buf(max_width);

    // Claim the single-writer roles this agent's topology position grants
    // it: its rows of both boards, the producer end of its outbound
    // queues, the consumer end of its inbound queues. Claims, not locks —
    // ownership is established by the topology (see SoleWriterRole).
    x_board.writer_role().assert_held();
    r_board.writer_role().assert_held();
    for (const index_t e : blk.out_edges) {
      queues[static_cast<std::size_t>(e)].producer.assert_held();
    }
    for (const index_t e : blk.in_edges) {
      queues[static_cast<std::size_t>(e)].consumer.assert_held();
    }

    Faults faults(plan, t, blk, x0, x_local, x_board);
    Metrics metrics(opts.metrics, t, timer);
    MessageTotals totals;
    auto& my_history = histories[ts];
    auto& my_events = agent_events[ts];
    if (opts.record_history) {
      // Reserve outside the timed loop (reallocation mid-run would
      // perturb the asynchronous interleaving); parked agents never pass
      // max_iterations, so this bound is exact.
      my_history.reserve(static_cast<std::size_t>(opts.max_iterations));
    }
    std::vector<index_t> sent_on_edge(blk.out_edges.size(), 0);

    index_t iter = 0;

    // Apply every packet currently queued on the inbound edges to the
    // local ghost entries (arrival order; with overlapping owners the
    // last applied packet wins).
    auto drain = [&](bool traced) {
      index_t popped = 0;
      for (const index_t e : blk.in_edges) {
        SpscQueue& q = queues[static_cast<std::size_t>(e)];
        const MeshEdge& edge = topo.edges[static_cast<std::size_t>(e)];
        index_t header = 0;
        std::span<double> buf(packet_buf.data(), q.width());
        while (q.try_pop(header, buf)) {
          ++popped;
          for (std::size_t k = 0; k < edge.rows.size(); ++k) {
            x_local[edge.rows[k]] = buf[k];
          }
          if (traced) {
            // A packet carries the sender's commits of iteration
            // `header`, i.e. its (header + 1)-th committed values.
            for (const index_t row : edge.rows) {
              versions[static_cast<std::size_t>(row)] = header + 1;
            }
          }
          if constexpr (Metrics::enabled) metrics.ghost_age(iter, header);
        }
      }
      totals.received += popped;
      if constexpr (Metrics::enabled) metrics.drain_summary(popped);
    };

    // Ship the committed boundary values to every subscriber, applying
    // the per-edge drop / duplicate decisions. A refused push (full
    // ring) counts as queue_full backpressure, not as a fault: it
    // consumes no FaultClock decision, so the fault log stays a pure
    // function of the plan.
    auto publish = [&] {
      for (std::size_t ei = 0; ei < blk.out_edges.size(); ++ei) {
        const index_t e = blk.out_edges[ei];
        SpscQueue& q = queues[static_cast<std::size_t>(e)];
        const MeshEdge& edge = topo.edges[static_cast<std::size_t>(e)];
        const index_t k = sent_on_edge[ei]++;
        [[maybe_unused]] const std::uint64_t key =
            directed_edge_key(edge.sender, edge.receiver);
        if constexpr (Faults::enabled) {
          if (faults.message_fault(fault::FaultKind::kMessageDrop, key,
                                   edge.receiver, k)) {
            ++totals.dropped;
            continue;
          }
        }
        for (std::size_t p = 0; p < edge.rows.size(); ++p) {
          packet_buf[p] = x_local[edge.rows[p]];
        }
        const std::span<const double> payload(packet_buf.data(),
                                              edge.rows.size());
        ++totals.sent;
        if (!q.try_push(iter, payload)) ++totals.queue_full;
        if constexpr (Faults::enabled) {
          if (faults.message_fault(fault::FaultKind::kMessageDuplicate, key,
                                   edge.receiver, k)) {
            ++totals.duplicated;
            ++totals.sent;
            if (!q.try_push(iter, payload)) ++totals.queue_full;
          }
        }
      }
    };

    while (!board.stopped()) {
      if (board.at_cap(iter)) {
        // Park-at-cap, the shared runtime's policy (never reached in
        // synchronous mode: lockstep flags all rise at the cap iteration
        // and the verified stop latches before re-entry).
        board.park(iter, metrics);
        continue;
      }
      if constexpr (Metrics::enabled) metrics.iteration_begin();
      if constexpr (Faults::enabled) {
        faults.begin_iteration(iter);
        if constexpr (Metrics::enabled) metrics.sync_faults(faults.schedule());
      }
      if constexpr (!Sync) {
        // Asynchronous ghost refresh. Inside a stale window the drains
        // are skipped: the ghosts freeze at their last applied values
        // while packets queue up behind the window.
        bool frozen = false;
        if constexpr (Faults::enabled) frozen = faults.stale_window_active();
        if (!frozen) drain(opts.record_trace);
      }

      // Step 1: stage every owned row's residual from the local view in
      // CSR entry order (bitwise solve_shared's reference kernel; Jacobi
      // discipline: all stages read the pre-commit state) and publish it
      // to the r board for the termination norm.
      for (index_t k = 0; k < own_rows; ++k) {
        const auto ks = static_cast<std::size_t>(k);
        const index_t i = blk.rows[ks];
        const auto [cols, vals] = a.row(i);
        double acc = b[i];
        for (std::size_t p = 0; p < cols.size(); ++p) {
          acc -= vals[p] * x_local[cols[p]];
        }
        staged[ks] = acc;
        r_board.write(i, acc);
      }
      if (opts.record_trace) {
        // Every stage read each off-diagonal column at its current version.
        for (const index_t i : blk.rows) {
          model::RelaxationEvent event;
          event.row = i;
          for (const index_t j : a.row_cols(i)) {
            if (j != i) event.reads.push_back({j, versions[j]});
          }
          my_events.push_back(std::move(event));
        }
      }

      // Step 2: commit the staged updates, mirror them to the x board,
      // and ship the new boundary values.
      for (index_t k = 0; k < own_rows; ++k) {
        const auto ks = static_cast<std::size_t>(k);
        const index_t i = blk.rows[ks];
        x_local[i] = x_local[i] + inv_diag[i] * staged[ks];
        x_board.write(i, x_local[i]);
      }
      if (opts.record_trace) {
        for (const index_t i : blk.rows) {
          versions[static_cast<std::size_t>(i)] = iter + 1;
        }
      }
      publish();

      if constexpr (Sync) {
        // Lockstep point 1 (solve_shared's stage/commit barrier): every
        // agent's iteration-k values are committed and queued; drain so
        // the next stage reads a complete synchronous state.
        gate->arrive_and_wait();
        drain(opts.record_trace);
      }

      ++iter;
      board.count(ts, iter);

      // Step 3: convergence check — racy 1-norm of the whole residual
      // board in natural row order (bitwise solve_shared's scan).
      double norm = 0.0;
      for (index_t i = 0; i < n; ++i) norm += std::abs(r_board.read(i));
      const double rel = norm / r0_norm;
      if (opts.record_history) {
        my_history.push_back({timer.seconds(), t, iter, rel});
      }
      const bool my_done = board.flag(ts, 0, rel, iter);
      if constexpr (Metrics::enabled) metrics.flag_update(my_done, iter);

      if constexpr (Sync) gate->arrive_and_wait();
      board.poll(iter, metrics);
      if constexpr (Sync) {
        // Keep lockstep: every agent passes the same number of barriers
        // and sees the verified stop decision together.
        gate->arrive_and_wait();
      }
      if constexpr (Metrics::enabled) metrics.iteration_end(iter - 1, own_rows);
      if constexpr (!Sync) {
        if (opts.yield && !board.stopped()) sched_yield();
      }
    }

    result.iterations_per_agent[ts] = iter;
    agent_totals[ts] = totals;
    if constexpr (Metrics::enabled) metrics.message_totals(totals);
    if constexpr (Faults::enabled) {
      // The last iteration's message faults are logged after its sync.
      if constexpr (Metrics::enabled) metrics.sync_faults(faults.schedule());
      fault_logs[ts] = faults.schedule().take_log();
    }
  };

  // std::thread creation/join are TSan-native happens-before edges, so
  // unlike the OpenMP runtime no manual annotations are needed around the
  // parallel region.
  std::vector<std::thread> workers;
  workers.reserve(na_sz);
  for (index_t t = 0; t < na; ++t) workers.emplace_back(agent_main, t);
  for (auto& w : workers) w.join();

  result.seconds = timer.seconds();
  result.x.resize(static_cast<std::size_t>(n));
  x_board.snapshot(result.x);

  // Independent serial verification of the final residual and the bounded
  // polish, both shared with solve_shared.
  Vector final_r(static_cast<std::size_t>(n));
  a.residual(result.x, b, final_r);
  runtime::Verdict verdict = runtime::verify_and_polish(
      a, inv_diag, Vector{vec::norm1(final_r)}, {&r0_norm, 1}, opts, na,
      timer, [&](index_t /*c*/, auto&& f) {
        f(std::span<double>(result.x), std::span<double>(final_r),
          std::span<const double>(b));
      });
  result.converged = verdict.converged[0];
  result.final_rel_residual_1 = verdict.final_rel_residual_1[0];
  result.polish_sweeps = verdict.polish_sweeps[0];

  for (std::size_t t = 0; t < na_sz; ++t) {
    result.total_relaxations += result.iterations_per_agent[t] *
                                static_cast<index_t>(topo.agents[t].rows.size());
    const MessageTotals& totals = agent_totals[t];
    result.messages_sent += totals.sent;
    result.messages_received += totals.received;
    result.messages_dropped += totals.dropped;
    result.messages_duplicated += totals.duplicated;
    result.queue_full_drops += totals.queue_full;
  }

  result.history = runtime::merge_histories(histories);
  if (opts.record_trace) result.trace = runtime::merge_traces(n, agent_events);
  result.fault_events = fault::merge(fault_logs);
  return result;
}

}  // namespace

MeshResult solve_mesh(const CsrMatrix& a, const Vector& b, const Vector& x0,
                      const MeshOptions& opts) {
  AJAC_CHECK(a.num_rows() == a.num_cols());
  const index_t n = a.num_rows();
  AJAC_CHECK(b.size() == static_cast<std::size_t>(n));
  AJAC_CHECK(x0.size() == static_cast<std::size_t>(n));
  AJAC_CHECK(opts.num_agents >= 1);
  AJAC_CHECK(opts.max_iterations >= 1);
  AJAC_CHECK(opts.queue_capacity >= 1);

  const RowSets sets = opts.row_sets.has_value()
                           ? *opts.row_sets
                           : contiguous_row_sets(n, opts.num_agents);
  AJAC_CHECK_MSG(sets.num_agents() == opts.num_agents,
                 "row_sets must define exactly num_agents sets");
  const MeshTopology topo = build_topology(a, sets);
  AJAC_CHECK_MSG(!opts.record_trace || topo.disjoint,
                 "trace recording needs disjoint row sets (per-row commit "
                 "versions require a unique writer)");

  AJAC_DBG_VALIDATE(validate::csr_structure(
      a, {.require_sorted_rows = true, .require_diagonal = true,
          .require_finite = true, .require_square = true}));
  AJAC_DBG_VALIDATE(validate::finite(b, "b"));
  AJAC_DBG_VALIDATE(validate::finite(x0, "x0"));

  const Vector inv_diag = solvers::inverse_diagonal(a);

  const fault::FaultPlan* plan =
      runtime::begin_control_plane(opts, opts.num_agents, "agent", "mesh");
  if (plan != nullptr) {
    AJAC_CHECK_MSG(plan->bit_flips.empty(),
                   "bit-flip injection instruments the shared-memory "
                   "kernels, not the mesh");
    for (const auto& s : plan->message_faults) {
      AJAC_CHECK_MSG(s.reorder_probability == 0.0,
                     "message reordering is meaningless on the mesh's FIFO "
                     "SPSC queues (use distsim for reorder scenarios)");
    }
  }

  return runtime::with_hooks<ActiveMeshFaults, NullMeshFaults>(
      plan != nullptr, opts.metrics != nullptr,
      [&]<class Faults, class Metrics>() {
        if (opts.synchronous) {
          return solve_mesh_impl<true, Faults, Metrics>(a, b, x0, opts, topo,
                                                        inv_diag, plan);
        }
        return solve_mesh_impl<false, Faults, Metrics>(a, b, x0, opts, topo,
                                                       inv_diag, plan);
      });
}

}  // namespace ajac::mesh
