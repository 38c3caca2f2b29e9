#include "layer_metrics.h"

#include <algorithm>

#include "metrics/histogram.h"
#include "probe.h"

namespace perfbench {

std::vector<double>
Widen(const std::vector<float>& values)
{
  return std::vector<double>(values.begin(), values.end());
}

void
AddCoreMetrics(const PlanStats& plan, double plan_s,
               const std::vector<double>& call_us, Report* report)
{
  const double calls = static_cast<double>(std::max<std::uint64_t>(
      plan.calls, 1));
  report->Layer("core.plan_calls", static_cast<double>(plan.calls),
                "count");
  report->Layer("core.plan_s", plan_s, "s");
  report->Layer("core.plan_us_p50", Quantile(call_us, 0.50), "us");
  report->Layer("core.plan_us_p99", Quantile(call_us, 0.99), "us");
  report->Layer("core.depth_mean", plan.depth_sum / calls, "count");
  report->Layer("core.assignments_per_call",
                static_cast<double>(plan.assignments) / calls, "count");
  report->Layer("core.productive_ratio",
                static_cast<double>(plan.productive) / calls, "ratio");
}

void
AddRuntimeMetrics(const ClosedLoopResult& loop, Report* report)
{
  const double done = static_cast<double>(std::max<std::uint64_t>(
      loop.completed, 1));
  const std::vector<double> submit = Widen(loop.submit_us);
  report->Layer("runtime.submit_us_p50", Quantile(submit, 0.50), "us");
  report->Layer("runtime.submit_us_p99", Quantile(submit, 0.99), "us");
  report->Layer("runtime.queue_delay_us_p50",
                loop.queue_delay_us.Percentile(50), "us");
  report->Layer("runtime.queue_delay_us_p99",
                loop.queue_delay_us.Percentile(99), "us");
  // The runtime stamps whole microseconds; binning them like its own
  // queue-delay histogram gives an interpolated, comparable median.
  tetri::metrics::Histogram inside =
      tetri::metrics::Histogram::LogSpaced(1.0, 1e8, 48);
  for (float us : loop.inside_us) inside.Add(us);
  report->Layer("runtime.inside_us_p50", inside.Percentile(50), "us");
  report->Layer("runtime.plan_us_p50", loop.plan_latency_us.Percentile(50),
                "us");
  report->Layer("runtime.rounds_per_req",
                static_cast<double>(loop.stats.rounds) / done, "count");
  report->Layer("runtime.assignments_per_req",
                static_cast<double>(loop.stats.assignments) / done, "count");
  report->Layer("runtime.slot_wait_us_p50",
                Quantile(Widen(loop.slot_wait_us), 0.50), "us");
  report->Layer("runtime.drain_ms", loop.drain_ms, "ms");
}

void
AddClosedLoopChecks(const ClosedLoopResult& loop, Report* report)
{
  report->attempted += loop.submitted;
  report->failed += std::min(loop.bad_requests, loop.submitted);
  for (const auto& f : loop.failures) report->Fail("runtime: " + f);
  for (const auto& m : loop.plan.messages) {
    report->Fail("plan contract: " + m);
  }
}

}  // namespace perfbench
