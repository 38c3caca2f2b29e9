/**
 * @file
 * Self-test of the benchmark's correctness checks: each check must
 * stay silent on a clean run and fire on a deliberately corrupted one.
 *
 *  - a scheduler decorator that double-books a GPU once is caught by
 *    the plan-contract validation;
 *  - a replay record with a miscounted step, an unfinished request, an
 *    impossibly fast completion, or over-charged GPU time is caught by
 *    CheckReplay;
 *  - a swallowed runtime completion and a miscounted completion step
 *    are caught by the closed-loop checks.
 */
#include <cstdio>
#include <string>

#include "bench.h"
#include "checks.h"
#include "closed_loop.h"
#include "core/tetri_scheduler.h"
#include "costmodel/model_config.h"
#include "serving/system.h"
#include "timed_scheduler.h"
#include "workload/trace.h"

namespace perfbench {
namespace {

using tetri::serving::RoundPlan;
using tetri::serving::ScheduleContext;

/** Double-books the GPUs of the first productive plan it sees. */
class DoubleBooker final : public tetri::serving::Scheduler {
 public:
  explicit DoubleBooker(tetri::serving::Scheduler* inner) : inner_(inner) {}
  std::string Name() const override { return inner_->Name(); }
  tetri::serving::SchedulingMode Mode() const override {
    return inner_->Mode();
  }
  tetri::TimeUs RoundDurationUs() const override {
    return inner_->RoundDurationUs();
  }
  RoundPlan Plan(const ScheduleContext& ctx) override {
    RoundPlan plan = inner_->Plan(ctx);
    if (!done_ && !plan.assignments.empty()) {
      done_ = true;
      plan.assignments.push_back(plan.assignments.front());
    }
    return plan;
  }

 private:
  tetri::serving::Scheduler* inner_;
  bool done_ = false;
};

bool
Mentions(const std::vector<std::string>& failures, const std::string& what)
{
  for (const auto& f : failures) {
    if (f.find(what) != std::string::npos) return true;
  }
  return false;
}

}  // namespace

Report
RunSelfTest()
{
  Report report;
  auto expect = [&](bool caught, const std::string& what) {
    std::printf("self-test: %-44s %s\n", what.c_str(),
                caught ? "ok" : "FAILED");
    std::fflush(stdout);
    if (!caught) report.Fail("self-test: " + what + " went unnoticed");
  };

  const auto model = tetri::costmodel::ModelConfig::FluxDev();
  const auto topology = tetri::cluster::Topology::H100Node();
  tetri::serving::ServingSystem system(&topology, &model);
  tetri::workload::TraceSpec spec;
  spec.num_requests = 80;
  spec.arrival_rate_per_min = 48.0;
  spec.mix = tetri::workload::ResolutionMix::Skewed();
  spec.seed = 11;
  const tetri::workload::Trace trace = tetri::workload::BuildTrace(spec);

  // Simulator: a clean replay passes every check.
  tetri::core::TetriScheduler clean_scheduler(&system.table());
  TimedScheduler clean_probe(&clean_scheduler, {false, true, false});
  const tetri::serving::ServingResult clean =
      system.Run(&clean_probe, trace);
  const ReplayCheck clean_check =
      CheckReplay(trace, clean, system.table(), topology.num_gpus());
  expect(clean_check.failures.empty() &&
             clean_probe.stats().violations == 0,
         "clean replay passes (control)");

  {
    tetri::core::TetriScheduler inner(&system.table());
    DoubleBooker corrupt(&inner);
    TimedScheduler probe(&corrupt, {false, true, false});
    system.Run(&probe, trace);
    expect(Mentions(probe.stats().messages, "double-books"),
           "double-booked GPU");
  }

  auto corrupted = [&](auto mutate) {
    tetri::serving::ServingResult bad = clean;
    for (auto& rec : bad.records) {
      if (rec.outcome == tetri::metrics::Outcome::kCompleted) {
        mutate(rec, bad);
        break;
      }
    }
    return !CheckReplay(trace, bad, system.table(), topology.num_gpus())
                .failures.empty();
  };
  expect(corrupted([](auto& rec, auto&) { --rec.steps_executed; }),
         "miscounted step (simulator)");
  expect(corrupted([](auto& rec, auto&) {
           rec.outcome = tetri::metrics::Outcome::kUnfinished;
         }),
         "request left unfinished");
  expect(corrupted([](auto& rec, auto&) {
           rec.completion_us = rec.arrival_us + 1;
         }),
         "impossibly fast completion");
  expect(corrupted([](auto& rec, auto& result) {
           rec.gpu_time_us += result.busy_gpu_us;
         }),
         "over-charged GPU time");

  // Runtime: a clean segment passes; tampered completions do not.
  ClosedLoopConfig config;
  config.shapes = &trace.requests;
  config.seconds = 60.0;  // bounded by max_requests
  config.max_requests = kCycle;
  config.lost_after_s = 0.2;
  const ClosedLoopResult clean_loop =
      RunClosedLoop(topology, system.table(), config);
  expect(clean_loop.failures.empty() && clean_loop.completed == kCycle,
         "clean closed loop passes (control)");

  config.tamper = [](tetri::runtime::Completion& c) { return c.id != 17; };
  expect(!RunClosedLoop(topology, system.table(), config).failures.empty(),
         "swallowed completion");
  config.tamper = [](tetri::runtime::Completion& c) {
    if (c.id == 23) --c.steps_done;
    return true;
  };
  expect(!RunClosedLoop(topology, system.table(), config).failures.empty(),
         "miscounted step (runtime)");
  return report;
}

}  // namespace perfbench
