/**
 * @file
 * Closed-loop load for the threaded runtime::ServingRuntime. One
 * generator (the calling thread) keeps kWindow requests in flight: it
 * submits the next request the moment an on_complete callback hands a
 * slot back. Request shapes (resolution, steps, SLO
 * budget) are taken from a trace in order, cycling. Execution is
 * instant, so only the control plane is on the clock.
 *
 * Every segment is checked independently of the runtime's own
 * bookkeeping: each submitted id completes exactly once with the steps
 * submitted; completed + dropped + failed == admitted == the
 * generator's count; the generator's Submit->callback interval
 * encloses the runtime's admitted->finished interval; and the
 * queue-delay histograms count every request.
 */
#ifndef PERFBENCH_CLOSED_LOOP_H
#define PERFBENCH_CLOSED_LOOP_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "cluster/topology.h"
#include "costmodel/latency_table.h"
#include "runtime/runtime.h"
#include "timed_scheduler.h"
#include "workload/trace.h"

namespace perfbench {

/** Requests kept in flight by the generator. */
inline constexpr int kWindow = 4;
/** The generator only stops between whole cycles of this many
 * requests. */
inline constexpr std::uint64_t kCycle = 256;

struct ClosedLoopConfig {
  /** Request shapes, submitted in order and cycled. */
  const std::vector<tetri::workload::TraceRequest>* shapes = nullptr;
  /** The generator stops at the first cycle of kCycle requests that
   * ends past this. */
  double seconds = 1.0;
  /** Or at the first cycle that ends past this many requests (0: time
   * only). */
  std::uint64_t max_requests = 0;
  /** Record spans and time Submit / slot waits / Plan. */
  bool traced = false;
  /** Validate every plan against the Scheduler contract. */
  bool validate = false;
  /** Audit sink handed to the runtime (nullable). */
  tetri::audit::AuditSink* audit = nullptr;
  /** A request not completed this long after its slot is needed is
   * reported lost, and the generator stops waiting for it. */
  double lost_after_s = 5.0;
  /** Test hook: may rewrite a completion before the checks see it;
   * returning false swallows it. */
  std::function<bool(tetri::runtime::Completion&)> tamper;
};

struct ClosedLoopResult {
  std::uint64_t submitted = 0;
  std::uint64_t callbacks = 0;
  std::uint64_t completed = 0;
  /** Completed within the SLO budget. */
  std::uint64_t met = 0;
  /** First Submit to last callback, seconds. */
  double elapsed_s = 0.0;
  /** Host seconds to construct the runtime (thread start). */
  double construct_s = 0.0;
  /** Process CPU minus the generator thread's own, ns. */
  std::int64_t runtime_cpu_ns = 0;
  /** CPU time of the planner thread over the segment, ns (-1 when
   * unknown). */
  std::int64_t planner_cpu_ns = -1;
  double drain_ms = 0.0;
  /** Generator-seen Submit->callback latency, microseconds. */
  std::vector<float> latency_us;
  /** Runtime-seen admitted->finished, microseconds. */
  std::vector<float> inside_us;
  /** Host time of each Submit call / slot wait (traced only). */
  std::vector<float> submit_us;
  std::vector<float> slot_wait_us;
  tetri::runtime::RuntimeStats stats;
  tetri::metrics::Histogram queue_delay_us;
  tetri::metrics::Histogram plan_latency_us;
  PlanStats plan;
  std::vector<std::string> failures;
  /** Requests failing a per-request check or never completing. */
  std::uint64_t bad_requests = 0;
};

/**
 * Run one segment on a fresh ServingRuntime (one worker, no watchdog:
 * generator + planner + worker threads) over a fresh TetriScheduler
 * built against @p table.
 */
ClosedLoopResult RunClosedLoop(const tetri::cluster::Topology& topology,
                               const tetri::costmodel::LatencyTable& table,
                               const ClosedLoopConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_CLOSED_LOOP_H
