/**
 * @file
 * Per-layer metric helpers shared by the simulator and runtime
 * workloads: the core layer (the Plan decorator's view) and the
 * runtime layer (a closed-loop segment's view).
 */
#ifndef PERFBENCH_LAYER_METRICS_H
#define PERFBENCH_LAYER_METRICS_H

#include <vector>

#include "bench.h"
#include "closed_loop.h"
#include "timed_scheduler.h"

namespace perfbench {

/** core.*: @p plan_s is the host time inside Plan per pass or segment;
 * @p call_us the pooled per-call times. */
void AddCoreMetrics(const PlanStats& plan, double plan_s,
                    const std::vector<double>& call_us, Report* report);

/** runtime.*: from a traced closed-loop segment. */
void AddRuntimeMetrics(const ClosedLoopResult& loop, Report* report);

/** Fold a segment's check results and request counts into @p report. */
void AddClosedLoopChecks(const ClosedLoopResult& loop, Report* report);

/** Float samples as doubles, for Quantile. */
std::vector<double> Widen(const std::vector<float>& values);

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_METRICS_H
