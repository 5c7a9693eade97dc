#pragma once
// One actor's iteration-keyed fault schedule, shared by the two real
// runtimes: solve_shared's threads and solve_mesh's agents. It makes the
// straggler, crash-and-recover and stale-window decisions, performs the
// wall-clock stalls, and keeps the actor's FaultLog; each runtime's
// injector composes it and adds only its own payload work (the shared
// runtime snapshots ghosts and rewrites rows, the mesh resets its local
// view and skips drains). One plan therefore injects at the same logical
// instants in both runtimes. distsim keeps its own RankFaults: its faults
// run on simulated time.

#include <utility>
#include <vector>

#include "ajac/fault/fault_plan.hpp"
#include "ajac/sparse/types.hpp"
#include "ajac/util/timer.hpp"

namespace ajac::fault {

/// What one iteration's schedule step asks of the runtime beyond the stall
/// it already performed.
struct ScheduleStep {
  bool reset_state = false;  ///< crash recovery with lost memory: own rows <- x0
  bool stale_window_entered = false;  ///< freeze the ghosts from here on
};

class ActorSchedule {
 public:
  ActorSchedule(const FaultPlan& plan, index_t actor)
      : clock_(plan.seed), actor_(actor) {
    for (const auto& s : plan.stragglers) {
      if (s.actor == actor) straggler_ = &s;
    }
    for (const auto& s : plan.stale_reads) {
      if (s.actor == actor || s.actor == -1) stale_ = &s;
    }
    for (const auto& s : plan.crashes) {
      if (s.actor == actor) crash_ = &s;
    }
  }

  /// Straggler stall, crash-and-recover, and stale-window bookkeeping, in
  /// that order, at the top of local iteration `iter`.
  ScheduleStep begin_iteration(index_t iter) {
    iter_ = iter;
    ScheduleStep step;
    if (straggler_ != nullptr) {
      const bool on =
          duty_active(straggler_->period, straggler_->duty, iter);
      if (on && !straggler_on_) record(FaultKind::kStragglerOn, iter);
      straggler_on_ = on;
      if (on) stall(straggler_->extra_delay_us);
    }
    if (crash_ != nullptr && !crashed_ && iter >= crash_->crash_iteration) {
      // A crash is an actor that stops participating for dead_seconds and
      // then resumes — optionally from the initial guess on its rows (lost
      // memory, which the runtime's injector restores). The blocking wait
      // is exactly that: no relaxations, no flag updates; neighbours keep
      // its last published values (the mesh's inbound rings fill up and
      // drop the overflow, its analogue of distsim's lost messages).
      crashed_ = true;
      record(FaultKind::kCrash, iter);
      stall(crash_->dead_seconds * 1e6);
      step.reset_state = crash_->reset_state_on_recovery;
      record(FaultKind::kRecover, iter);
    }
    if (stale_ != nullptr) {
      const bool on = duty_active(stale_->period, stale_->duty, iter);
      if (on && !stale_on_) {
        record(FaultKind::kStaleWindowOn, iter);
        step.stale_window_entered = true;
      }
      stale_on_ = on;
    }
    return step;
  }

  /// Whether the plan gives this actor a stale window at all.
  [[nodiscard]] bool has_stale_window() const { return stale_ != nullptr; }
  [[nodiscard]] bool stale_window_active() const { return stale_on_; }

  [[nodiscard]] index_t actor() const { return actor_; }
  /// The local iteration of the last begin_iteration.
  [[nodiscard]] index_t iteration() const { return iter_; }
  [[nodiscard]] const FaultClock& clock() const { return clock_; }

  /// Append one injection to this actor's log; the composing injectors
  /// record their own kinds (bit flips, message faults) here too.
  void record(FaultKind kind, index_t counter, index_t detail = 0,
              index_t detail2 = 0) {
    log_.push_back({kind, actor_, counter, detail, detail2});
  }

  /// Append-only within the actor; the metrics layer diffs its size to
  /// timestamp the injections.
  [[nodiscard]] const FaultLog& log() const { return log_; }

  /// Cumulative injected stall (straggler delays + crash dead time), in
  /// microseconds; the metrics layer diffs it per iteration.
  [[nodiscard]] double stalled_us() const { return stalled_us_; }

  [[nodiscard]] FaultLog take_log() { return std::move(log_); }

 private:
  void stall(double us) {
    spin_wait_us(us);
    stalled_us_ += us;
  }

  FaultClock clock_;
  index_t actor_;
  index_t iter_ = 0;
  const StragglerSpec* straggler_ = nullptr;
  const StaleReadSpec* stale_ = nullptr;
  const CrashSpec* crash_ = nullptr;
  bool straggler_on_ = false;
  bool stale_on_ = false;
  bool crashed_ = false;
  double stalled_us_ = 0.0;
  FaultLog log_;
};

}  // namespace ajac::fault
