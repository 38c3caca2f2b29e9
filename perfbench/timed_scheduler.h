/**
 * @file
 * A forwarding serving::Scheduler decorator: the benchmark's probe on
 * the core layer. It passes every Plan call through to the wrapped
 * policy unchanged and, depending on its options, times the call
 * (span + per-call sample), validates the returned plan against the
 * Scheduler contract, and books the plan's simulated GPU time.
 *
 * It never alters a valid plan. An invalid plan is recorded as a
 * violation and replaced by an empty plan, so the serving loop keeps
 * running and the run reports the violation instead of aborting.
 */
#ifndef PERFBENCH_TIMED_SCHEDULER_H
#define PERFBENCH_TIMED_SCHEDULER_H

#include <atomic>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

#include "serving/scheduler.h"

namespace perfbench {

/** Contract violations of @p plan under @p ctx (empty when valid). */
std::vector<std::string> ValidatePlan(
    const tetri::serving::ScheduleContext& ctx,
    const tetri::serving::RoundPlan& plan);

/** What the decorator saw; read it after the run has ended. */
struct PlanStats {
  std::uint64_t calls = 0;
  /** Calls that returned at least one assignment. */
  std::uint64_t productive = 0;
  std::uint64_t assignments = 0;
  /** Sum of the schedulable-queue depth over calls. */
  double depth_sum = 0.0;
  /** Host time inside the wrapped Plan (timed mode). */
  std::int64_t plan_ns = 0;
  /** Per-call host time, microseconds (timed mode). */
  std::vector<double> call_us;
  /** Simulated GPU-microseconds the plans booked (booking mode). */
  double booked_gpu_us = 0.0;
  std::uint64_t violations = 0;
  /** The first few violation messages. */
  std::vector<std::string> messages;
};

class TimedScheduler final : public tetri::serving::Scheduler {
 public:
  struct Options {
    bool time_calls = false;
    bool validate = false;
    bool book_gpu_time = false;
  };

  TimedScheduler(tetri::serving::Scheduler* inner, Options options)
      : inner_(inner), options_(options) {}

  std::string Name() const override { return inner_->Name(); }
  tetri::serving::SchedulingMode Mode() const override {
    return inner_->Mode();
  }
  tetri::TimeUs RoundDurationUs() const override {
    return inner_->RoundDurationUs();
  }
  void set_trace(tetri::trace::TraceSink* sink) override {
    inner_->set_trace(sink);
  }

  tetri::serving::RoundPlan Plan(
      const tetri::serving::ScheduleContext& ctx) override;

  /** Parent span of the Plan spans (the enclosing Run span). */
  void set_parent_span(std::int64_t parent) { parent_span_ = parent; }

  const PlanStats& stats() const { return stats_; }

  /**
   * CPU time of the thread that calls Plan (the runtime's planner
   * thread), readable from any thread while that thread is alive;
   * -1 before the first Plan call.
   */
  std::int64_t PlannerCpuNs() const;

 private:
  tetri::serving::Scheduler* inner_;
  Options options_;
  std::int64_t parent_span_ = -1;
  PlanStats stats_;
  clockid_t planner_clock_{};
  std::atomic<bool> planner_clock_set_{false};
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_SCHEDULER_H
