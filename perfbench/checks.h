/**
 * @file
 * Independent correctness checks on the program's outputs. They derive
 * every expectation from the inputs (the trace, the latency table, the
 * generator's own counts), never from a stored copy of earlier output.
 */
#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <cstdint>
#include <string>
#include <vector>

#include "costmodel/latency_table.h"
#include "serving/system.h"
#include "workload/trace.h"

namespace perfbench {

/** Outcome of checking one simulator replay. */
struct ReplayCheck {
  std::vector<std::string> failures;
  /** Requests left non-terminal or failing a per-request check. */
  std::uint64_t bad_requests = 0;
};

/**
 * Checks one replay of @p trace:
 *  - each trace request has exactly one record, and none is left
 *    unfinished;
 *  - each completed request ran exactly its num_steps, and each
 *    dropped or cancelled one stopped short of them;
 *  - the GPU time charged to requests does not exceed the node's busy
 *    GPU time, which does not exceed num_gpus x makespan;
 *  - no request finishes faster than num_steps x the table's fastest
 *    per-step time over all degrees, less six profiled standard
 *    deviations, plus its VAE decode.
 */
ReplayCheck CheckReplay(const tetri::workload::Trace& trace,
                        const tetri::serving::ServingResult& result,
                        const tetri::costmodel::LatencyTable& table,
                        int num_gpus);

/** Bit-exact digest of a replay's per-request outcomes and totals. */
std::uint64_t OutcomeDigest(const tetri::serving::ServingResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H
