// The mesh runs the shared-memory runtime's control plane: its metrics
// recorder, termination board and fault schedule. These tests pin what
// that buys.
//
//   - The metrics a registry collects from a mesh run agree with the
//     MeshResult of the same run: iterations, relaxations, queue traffic,
//     fault events, polish sweeps, and exactly one kStop instant per
//     decided stop (the agent that wins the stop latch records it).
//   - One FaultPlan is one schedule: run asynchronously at tolerance 0 to
//     a fixed iteration cap (park-at-cap makes both logs independent of
//     scheduling), solve_shared and solve_mesh with the same actor count
//     log the same straggler, crash and stale-window events.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>

#include "ajac/fault/fault_plan.hpp"
#include "ajac/gen/fd.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/mesh/mesh_jacobi.hpp"
#include "ajac/obs/metrics.hpp"
#include "ajac/runtime/shared_jacobi.hpp"
#include "ajac/sparse/csr.hpp"
#include "test_helpers.hpp"

namespace ajac::mesh {
namespace {

std::uint64_t total(const obs::MetricsSnapshot& snap, obs::Counter c) {
  return snap.totals[static_cast<std::size_t>(c)];
}

/// Timeline events of one kind on every actor's lane.
std::size_t count_events(const obs::MetricsRegistry& reg,
                         obs::TraceKind kind) {
  std::size_t count = 0;
  for (index_t t = 0; t < reg.num_actors(); ++t) {
    const obs::ActorSlot& slot = reg.actor(t);
    slot.owner.assert_shared();  // read after the solve joined
    for (const obs::TraceEvent& e : slot.events) {
      count += e.kind == kind ? 1 : 0;
    }
  }
  return count;
}

TEST(MeshMetrics, CountersMatchResult) {
  const auto p = gen::make_problem("fd12", gen::fd_laplacian_2d(12, 12),
                                   testing::test_seed(/*salt=*/61));
  for (const bool sync : {true, false}) {
    SCOPED_TRACE(sync ? "synchronous" : "asynchronous, straggler plan");
    MeshOptions mo;
    mo.num_agents = 3;
    mo.synchronous = sync;
    mo.tolerance = 1e-8;
    // Converged or parked at the cap (a loaded host can spend an agent's
    // cap while a neighbour is off-CPU), the counters must match the
    // result either way.
    mo.max_iterations = 5000;
    mo.record_history = false;
    mo.yield = !sync;
    if (!sync) {
      auto plan = std::make_shared<fault::FaultPlan>();
      plan->seed = testing::test_seed(/*salt=*/62);
      plan->stragglers.push_back(
          {.actor = 1, .extra_delay_us = 5.0, .period = 16, .duty = 0.5});
      mo.fault_plan = plan;
    }
    obs::MetricsRegistry reg;
    mo.metrics = &reg;
    const MeshResult run = solve_mesh(p.a, p.b, p.x0, mo);

    const obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(reg.actor_kind(), "agent");
    const index_t iterations =
        std::accumulate(run.iterations_per_agent.begin(),
                        run.iterations_per_agent.end(), index_t{0});
    EXPECT_EQ(total(snap, obs::Counter::kIterations),
              static_cast<std::uint64_t>(iterations));
    EXPECT_EQ(total(snap, obs::Counter::kRelaxations),
              static_cast<std::uint64_t>(run.total_relaxations));
    EXPECT_EQ(total(snap, obs::Counter::kMessagesSent),
              static_cast<std::uint64_t>(run.messages_sent));
    EXPECT_EQ(total(snap, obs::Counter::kMessagesReceived),
              static_cast<std::uint64_t>(run.messages_received));
    EXPECT_EQ(total(snap, obs::Counter::kMessagesDropped),
              static_cast<std::uint64_t>(run.messages_dropped));
    EXPECT_EQ(total(snap, obs::Counter::kMessagesDuplicated),
              static_cast<std::uint64_t>(run.messages_duplicated));
    EXPECT_EQ(total(snap, obs::Counter::kQueueFullDrops),
              static_cast<std::uint64_t>(run.queue_full_drops));
    EXPECT_EQ(total(snap, obs::Counter::kFaultEvents),
              run.fault_events.size());
    EXPECT_EQ(total(snap, obs::Counter::kPolishSweeps),
              static_cast<std::uint64_t>(run.polish_sweeps));
    EXPECT_GT(run.messages_sent, 0);
    if (!sync) {
      EXPECT_FALSE(run.fault_events.empty());
      EXPECT_GT(total(snap, obs::Counter::kSpinWaitNs), 0u);
    }
    EXPECT_EQ(count_events(reg, obs::TraceKind::kStop), 1u);
    EXPECT_EQ(count_events(reg, obs::TraceKind::kSolve), 1u);
  }
}

TEST(MeshFaults, OnePlanGivesOneScheduleOnBothRuntimes) {
  const auto p = gen::make_problem("fd12", gen::fd_laplacian_2d(12, 12),
                                   testing::test_seed(/*salt=*/63));
  constexpr index_t kActors = 3;
  constexpr index_t kIterations = 40;
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->seed = testing::test_seed(/*salt=*/64);
  plan->stragglers.push_back(
      {.actor = 0, .extra_delay_us = 10.0, .period = 8, .duty = 0.5});
  plan->crashes.push_back({.actor = 2,
                           .crash_iteration = 11,
                           .dead_seconds = 1e-4,
                           .reset_state_on_recovery = true});
  plan->stale_reads.push_back({.actor = -1, .period = 6, .duty = 0.5});

  runtime::SharedOptions so;
  so.num_threads = kActors;
  so.tolerance = 0.0;
  so.max_iterations = kIterations;
  so.record_history = false;
  so.yield = true;
  so.fault_plan = plan;
  const runtime::SharedResult shared =
      runtime::solve_shared(p.a, p.b, p.x0, so);

  MeshOptions mo;
  mo.num_agents = kActors;
  mo.tolerance = 0.0;
  mo.max_iterations = kIterations;
  mo.record_history = false;
  mo.yield = true;
  mo.fault_plan = plan;
  const MeshResult mesh = solve_mesh(p.a, p.b, p.x0, mo);

  for (index_t it : shared.iterations_per_thread) EXPECT_EQ(it, kIterations);
  for (index_t it : mesh.iterations_per_agent) EXPECT_EQ(it, kIterations);
  ASSERT_FALSE(shared.fault_events.empty());
  ASSERT_EQ(shared.fault_events.size(), mesh.fault_events.size());
  for (std::size_t e = 0; e < shared.fault_events.size(); ++e) {
    EXPECT_EQ(shared.fault_events[e], mesh.fault_events[e])
        << "fault logs diverge at event " << e;
  }
  EXPECT_EQ(fault::to_json(shared.fault_events),
            fault::to_json(mesh.fault_events));
}

}  // namespace
}  // namespace ajac::mesh
