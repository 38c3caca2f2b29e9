#include "checks.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

namespace perfbench {

using tetri::metrics::Outcome;
using tetri::metrics::RequestRecord;

namespace {

constexpr std::size_t kMaxMessages = 8;

/** Fastest plausible latency of @p steps steps at @p res: the table's
 * fastest per-step mean over all degrees, less six profiled standard
 * deviations, plus the VAE decode. */
double
LatencyFloorUs(const tetri::costmodel::LatencyTable& table,
               tetri::costmodel::Resolution res, int steps)
{
  double cv = 0.0;
  for (int d : table.degrees()) cv = std::max(cv, table.StepCv(res, d, 1));
  return steps * table.MinStepTimeUs(res) * std::max(0.0, 1.0 - 6.0 * cv) +
         table.VaeDecodeUs(res);
}

}  // namespace

ReplayCheck
CheckReplay(const tetri::workload::Trace& trace,
            const tetri::serving::ServingResult& result,
            const tetri::costmodel::LatencyTable& table, int num_gpus)
{
  ReplayCheck check;
  auto fail = [&](const std::string& what) {
    ++check.bad_requests;
    if (check.failures.size() < kMaxMessages) check.failures.push_back(what);
  };

  std::unordered_map<tetri::RequestId, const RequestRecord*> by_id;
  by_id.reserve(result.records.size());
  for (const RequestRecord& rec : result.records) {
    if (!by_id.emplace(rec.id, &rec).second) {
      fail("request " + std::to_string(rec.id) + " has two records");
    }
  }
  if (result.records.size() != trace.requests.size()) {
    std::ostringstream msg;
    msg << result.records.size() << " records for "
        << trace.requests.size() << " trace requests";
    fail(msg.str());
  }

  double charged_gpu_us = 0.0;
  for (const auto& req : trace.requests) {
    auto it = by_id.find(req.id);
    if (it == by_id.end()) {
      fail("request " + std::to_string(req.id) + " has no record");
      continue;
    }
    const RequestRecord& rec = *it->second;
    charged_gpu_us += rec.gpu_time_us;
    const std::string who = "request " + std::to_string(req.id);
    switch (rec.outcome) {
      case Outcome::kUnfinished:
        fail(who + " left unfinished");
        break;
      case Outcome::kCompleted:
        if (rec.steps_executed != req.num_steps) {
          fail(who + " completed after " +
               std::to_string(rec.steps_executed) + " of " +
               std::to_string(req.num_steps) + " steps");
        }
        if (!rec.Completed()) fail(who + " completed without a time");
        if (rec.Completed() &&
            static_cast<double>(rec.completion_us - req.arrival_us) <
                LatencyFloorUs(table, req.resolution, req.num_steps)) {
          fail(who + " finished faster than its steps allow");
        }
        break;
      case Outcome::kDropped:
      case Outcome::kCancelled:
        if (rec.steps_executed >= req.num_steps) {
          fail(who + " dropped after running all its steps");
        }
        if (rec.Completed()) fail(who + " dropped with a completion time");
        break;
    }
  }

  // Requests are charged their share of each assignment's execution
  // span; the node's busy time also counts re-sharding stalls and
  // latent transfers, so it can only be larger.
  const double tolerance = 1e-9 * result.busy_gpu_us + 1.0;
  if (charged_gpu_us > result.busy_gpu_us + tolerance) {
    std::ostringstream msg;
    msg.precision(17);
    msg << "requests charged " << charged_gpu_us
        << " GPU-us but the node was busy " << result.busy_gpu_us;
    fail(msg.str());
  }
  if (result.busy_gpu_us >
      static_cast<double>(num_gpus) *
              static_cast<double>(result.makespan_us) + tolerance) {
    fail("busy GPU time exceeds num_gpus x makespan");
  }
  return check;
}

std::uint64_t
OutcomeDigest(const tetri::serving::ServingResult& result)
{
  // FNV-1a over the raw bytes of every outcome field.
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  for (const RequestRecord& r : result.records) {
    mix(&r.id, sizeof r.id);
    mix(&r.completion_us, sizeof r.completion_us);
    mix(&r.gpu_time_us, sizeof r.gpu_time_us);
    mix(&r.degree_step_sum, sizeof r.degree_step_sum);
    mix(&r.steps_executed, sizeof r.steps_executed);
    const int outcome = static_cast<int>(r.outcome);
    mix(&outcome, sizeof outcome);
  }
  mix(&result.busy_gpu_us, sizeof result.busy_gpu_us);
  mix(&result.makespan_us, sizeof result.makespan_us);
  mix(&result.num_assignments, sizeof result.num_assignments);
  mix(&result.num_reconfigs, sizeof result.num_reconfigs);
  mix(&result.num_latent_transfers, sizeof result.num_latent_transfers);
  return h;
}

}  // namespace perfbench
