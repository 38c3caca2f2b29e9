#include "timed_scheduler.h"

#include <pthread.h>

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "cluster/gpu_set.h"
#include "costmodel/latency_table.h"
#include "probe.h"
#include "serving/request.h"

namespace perfbench {

using tetri::serving::Assignment;
using tetri::serving::Request;
using tetri::serving::RequestState;
using tetri::serving::RoundPlan;
using tetri::serving::ScheduleContext;

namespace {

constexpr std::size_t kMaxMessages = 8;

}  // namespace

std::vector<std::string>
ValidatePlan(const ScheduleContext& ctx, const RoundPlan& plan)
{
  std::vector<std::string> out;
  auto fail = [&](const std::string& what) {
    std::ostringstream msg;
    msg << "t=" << ctx.now << "us: " << what;
    out.push_back(msg.str());
  };

  // The snapshot the loop hands in: arrived, queued, (deadline, id)
  // sorted, no duplicates.
  std::unordered_map<tetri::RequestId, const Request*> by_id;
  const Request* prev = nullptr;
  for (const Request* r : *ctx.schedulable) {
    if (r->state != RequestState::kQueued) {
      fail("schedulable request " + std::to_string(r->meta.id) +
           " is not queued");
    }
    if (r->meta.arrival_us > ctx.now) {
      fail("schedulable request " + std::to_string(r->meta.id) +
           " has not arrived");
    }
    if (prev != nullptr &&
        std::make_pair(prev->meta.deadline_us, prev->meta.id) >=
            std::make_pair(r->meta.deadline_us, r->meta.id)) {
      fail("schedulable snapshot not sorted by (deadline, id)");
    }
    if (!by_id.emplace(r->meta.id, r).second) {
      fail("request " + std::to_string(r->meta.id) +
           " twice in the snapshot");
    }
    prev = r;
  }

  const std::vector<int>& degrees = ctx.table->degrees();
  tetri::GpuMask used = 0;
  std::unordered_set<tetri::RequestId> placed;
  for (const Assignment& a : plan.assignments) {
    const int degree = tetri::cluster::Popcount(a.mask);
    if (a.requests.empty()) fail("assignment without requests");
    if (a.mask == 0) fail("assignment without GPUs");
    if ((a.mask & ~ctx.free_gpus) != 0) {
      fail("assignment uses busy GPUs " +
           tetri::cluster::MaskToString(a.mask & ~ctx.free_gpus));
    }
    if ((a.mask & used) != 0) {
      fail("plan double-books GPUs " +
           tetri::cluster::MaskToString(a.mask & used));
    }
    used |= a.mask;
    if (std::find(degrees.begin(), degrees.end(), degree) ==
        degrees.end()) {
      fail("degree " + std::to_string(degree) + " is not profiled");
    }
    if (static_cast<int>(a.requests.size()) > ctx.table->max_batch()) {
      fail("batch of " + std::to_string(a.requests.size()) +
           " exceeds the profiled maximum");
    }
    if (a.max_steps < 1) fail("assignment with max_steps < 1");
    const Request* first = nullptr;
    for (tetri::RequestId id : a.requests) {
      auto it = by_id.find(id);
      if (it == by_id.end()) {
        fail("request " + std::to_string(id) + " is not schedulable");
        continue;
      }
      const Request* r = it->second;
      if (!placed.insert(id).second) {
        fail("request " + std::to_string(id) + " in two assignments");
      }
      if (first == nullptr) first = r;
      if (r->meta.resolution != first->meta.resolution) {
        fail("batch mixes resolutions");
      }
      if (a.max_steps > r->RemainingSteps()) {
        fail("max_steps " + std::to_string(a.max_steps) +
             " exceeds request " + std::to_string(id) + "'s " +
             std::to_string(r->RemainingSteps()) + " remaining");
      }
      if (r->degree_cap > 0 && degree > r->degree_cap) {
        fail("degree above request " + std::to_string(id) + "'s cap");
      }
    }
  }
  return out;
}

RoundPlan
TimedScheduler::Plan(const ScheduleContext& ctx)
{
  if (!planner_clock_set_.load(std::memory_order_relaxed)) {
    if (pthread_getcpuclockid(pthread_self(), &planner_clock_) == 0) {
      planner_clock_set_.store(true, std::memory_order_release);
    }
  }

  const std::int64_t id = SpanLog::Get().NewId();
  const std::int64_t start = options_.time_calls ? MonoNs() : 0;
  RoundPlan plan = inner_->Plan(ctx);
  if (options_.time_calls) {
    const std::int64_t end = MonoNs();
    stats_.plan_ns += end - start;
    stats_.call_us.push_back(static_cast<double>(end - start) / 1e3);
    SpanLog::Get().Record(id, "core.Plan", start, end, parent_span_);
  }

  ++stats_.calls;
  stats_.depth_sum += static_cast<double>(ctx.schedulable->size());

  if (options_.validate) {
    std::vector<std::string> bad = ValidatePlan(ctx, plan);
    if (!bad.empty()) {
      ++stats_.violations;
      for (std::string& m : bad) {
        if (stats_.messages.size() < kMaxMessages) {
          stats_.messages.push_back(std::move(m));
        }
      }
      return RoundPlan{};
    }
  }

  if (!plan.assignments.empty()) ++stats_.productive;
  stats_.assignments += plan.assignments.size();

  if (options_.book_gpu_time) {
    for (const Assignment& a : plan.assignments) {
      const Request* first = nullptr;
      int steps = a.max_steps;
      for (const Request* r : *ctx.schedulable) {
        if (std::find(a.requests.begin(), a.requests.end(), r->meta.id) ==
            a.requests.end()) {
          continue;
        }
        if (first == nullptr) first = r;
        steps = std::min(steps, r->RemainingSteps());
      }
      if (first == nullptr) continue;
      const int degree = tetri::cluster::Popcount(a.mask);
      stats_.booked_gpu_us +=
          ctx.table->StepTimeUs(first->meta.resolution, degree,
                                static_cast<int>(a.requests.size())) *
          steps * degree;
    }
  }
  return plan;
}

std::int64_t
TimedScheduler::PlannerCpuNs() const
{
  if (!planner_clock_set_.load(std::memory_order_acquire)) return -1;
  timespec ts{};
  if (clock_gettime(planner_clock_, &ts) != 0) return -1;
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace perfbench
