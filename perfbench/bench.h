/**
 * @file
 * Shared declarations of the end-to-end benchmark: run options, the
 * report every workload fills in, and the workload entry points.
 *
 * A workload's run is either untraced (end-to-end metrics only) or
 * traced (per-layer metrics from spans recorded around the calls into
 * each layer, plus plan-contract validation and the audit suite). Both
 * kinds check the program's outputs and count the requests attempted
 * and failed. See README.md for the metric definitions.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line options of one run. */
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /** CLOCK_MONOTONIC nanoseconds at which the launcher spawned this
   * process (0: use the start of main). Set-up time runs from here. */
  std::int64_t t0_ns = 0;
  /** Requests per trace (0: the workload's default); for measuring how
   * host time scales with trace length. */
  int requests = 0;
};

/** One reported number. */
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/** What a workload run hands back to main. */
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /** Check failures; any entry makes the run incorrect. */
  std::vector<std::string> failures;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /** Extra human-readable lines (sample counts, run shape). */
  std::vector<std::string> notes;

  void Fail(std::string message);
  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value,
             const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

/** Workload entry points. */
Report RunSimLong(const RunOptions& options);
Report RunSimBurst(const RunOptions& options);
Report RunRtClosed(const RunOptions& options);

/** Shows each correctness check failing on a corrupted input; any
 * check that stays silent is reported as a failure. */
Report RunSelfTest();

/** Seconds from process start (RunOptions::t0_ns) to now. */
double SetupSeconds(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H
