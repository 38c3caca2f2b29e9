/**
 * @file
 * The rt-closed workload: the threaded runtime::ServingRuntime on the
 * 8xH100 topology with the FLUX.1-dev latency table, driven in closed
 * loop with 4 requests in flight by one generator thread (one worker,
 * no watchdog: three threads in all). Request shapes come from a
 * seeded uniform-mix trace of 4-step requests with their SLO budgets;
 * execution is instant, so the control plane is on the clock:
 * admission push, fair-queue drain, planner round, dispatch hand-off,
 * worker and completion mailbox.
 *
 * A run is split into segments, each on a fresh runtime, and the
 * end-to-end numbers pool all segments: planner rounds per request fall
 * into two modes between runs, and pooling several runtime instances
 * averages over instance-to-instance differences in hand-off timing.
 * A traced run alternates untraced and traced segments (their ratio is
 * the tracing overhead), then runs one checked segment with plan
 * validation and the runtime audit checkers.
 */
#include <algorithm>
#include <sstream>

#include "audit/checkers.h"
#include "bench.h"
#include "closed_loop.h"
#include "costmodel/model_config.h"
#include "layer_metrics.h"
#include "probe.h"
#include "serving/system.h"
#include "workload/trace.h"

namespace perfbench {
namespace {

/** Untraced segments per run (each on a fresh runtime). */
constexpr int kSegments = 4;
constexpr int kShapes = 4096;
constexpr int kStepsPerRequest = 4;
/** The checked segment is bounded: the audit checkers remember every
 * request id. */
constexpr std::uint64_t kCheckedRequests = 20000;

/** Pool segment @p s into @p acc. */
void
Pool(ClosedLoopResult s, ClosedLoopResult* acc)
{
  acc->submitted += s.submitted;
  acc->callbacks += s.callbacks;
  acc->completed += s.completed;
  acc->met += s.met;
  acc->elapsed_s += s.elapsed_s;
  acc->runtime_cpu_ns += s.runtime_cpu_ns;
  acc->planner_cpu_ns = std::max<std::int64_t>(acc->planner_cpu_ns, 0) +
                        std::max<std::int64_t>(s.planner_cpu_ns, 0);
  acc->drain_ms = std::max(acc->drain_ms, s.drain_ms);
  auto append = [](std::vector<float>& to, const std::vector<float>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(acc->latency_us, s.latency_us);
  append(acc->inside_us, s.inside_us);
  append(acc->submit_us, s.submit_us);
  append(acc->slot_wait_us, s.slot_wait_us);
  acc->stats.rounds += s.stats.rounds;
  acc->stats.assignments += s.stats.assignments;
  acc->stats.dropped += s.stats.dropped;
  if (!acc->queue_delay_us.valid()) {
    acc->queue_delay_us = s.queue_delay_us;
    acc->plan_latency_us = s.plan_latency_us;
  } else {
    acc->queue_delay_us.Merge(s.queue_delay_us);
    acc->plan_latency_us.Merge(s.plan_latency_us);
  }
  PlanStats& p = acc->plan;
  p.calls += s.plan.calls;
  p.productive += s.plan.productive;
  p.assignments += s.plan.assignments;
  p.depth_sum += s.plan.depth_sum;
  p.plan_ns += s.plan.plan_ns;
  p.call_us.insert(p.call_us.end(), s.plan.call_us.begin(),
                   s.plan.call_us.end());
  p.booked_gpu_us += s.plan.booked_gpu_us;
}

double
UsPerRequest(const ClosedLoopResult& r)
{
  return r.elapsed_s * 1e6 /
         static_cast<double>(std::max<std::uint64_t>(r.completed, 1));
}

}  // namespace

Report
RunRtClosed(const RunOptions& options)
{
  Report report;
  const auto model = tetri::costmodel::ModelConfig::FluxDev();
  const auto topology = tetri::cluster::Topology::H100Node();
  double profile_s = 0.0, build_s = 0.0;
  std::unique_ptr<tetri::serving::ServingSystem> system;
  {
    ScopedSpan span("costmodel.Profile");
    const std::int64_t t0 = MonoNs();
    system = std::make_unique<tetri::serving::ServingSystem>(&topology,
                                                             &model);
    profile_s = static_cast<double>(MonoNs() - t0) / 1e9;
  }
  tetri::workload::Trace trace;
  {
    ScopedSpan span("workload.BuildTrace");
    const std::int64_t t0 = MonoNs();
    tetri::workload::TraceSpec spec;
    spec.num_requests = options.requests > 0 ? options.requests : kShapes;
    spec.steps_per_request = kStepsPerRequest;
    spec.mix = tetri::workload::ResolutionMix::Uniform();
    spec.seed = options.seed;
    trace = tetri::workload::BuildTrace(spec);
    build_s = static_cast<double>(MonoNs() - t0) / 1e9;
  }
  const tetri::costmodel::LatencyTable& table = system->table();
  // Set-up ends once the first runtime is up; its construction time is
  // added below.
  double setup_s = SetupSeconds(options);

  ClosedLoopConfig config;
  config.shapes = &trace.requests;
  config.seconds = options.seconds / kSegments;

  ClosedLoopResult plain, traced;
  std::ostringstream modes;
  for (int s = 0; s < kSegments; ++s) {
    config.traced = false;
    ClosedLoopResult seg = RunClosedLoop(topology, table, config);
    if (s == 0) setup_s += seg.construct_s;
    modes << " " << static_cast<double>(seg.stats.rounds) /
                        static_cast<double>(std::max<std::uint64_t>(
                            seg.completed, 1));
    AddClosedLoopChecks(seg, &report);
    Pool(std::move(seg), &plain);
    if (options.trace) {
      config.traced = true;
      ClosedLoopResult t = RunClosedLoop(topology, table, config);
      AddClosedLoopChecks(t, &report);
      Pool(std::move(t), &traced);
    }
  }

  report.notes.push_back("set-up " + std::to_string(setup_s) +
                         " s from process start: profiling " +
                         std::to_string(profile_s) + " s, trace build " +
                         std::to_string(build_s) + " s");
  std::ostringstream shape;
  shape << kSegments << " untraced segment(s) of " << config.seconds
        << " s, window " << kWindow << ", " << plain.completed
        << " requests completed; latency mean and p99 over "
        << plain.latency_us.size() << " requests (host time, Submit to "
        << "on_complete); " << static_cast<double>(plain.stats.rounds) /
               static_cast<double>(std::max<std::uint64_t>(plain.completed, 1))
        << " planner rounds per request (per segment:" << modes.str()
        << ")";
  report.notes.push_back(shape.str());

  const double done =
      static_cast<double>(std::max<std::uint64_t>(plain.completed, 1));
  if (!options.trace) {
    const std::vector<double> latency_ms = [&] {
      std::vector<double> v = Widen(plain.latency_us);
      for (double& x : v) x /= 1e3;
      return v;
    }();
    report.E2e("setup_s", setup_s, "s");
    report.E2e("host_us_per_req", UsPerRequest(plain), "us");
    report.E2e("host_cpu_us_per_req",
               static_cast<double>(plain.runtime_cpu_ns) / 1e3 / done, "us");
    report.E2e("goodput_rpm",
               static_cast<double>(plain.met) / (plain.elapsed_s / 60.0),
               "req/min");
    report.E2e("gpu_s_per_done", plain.plan.booked_gpu_us / 1e6 / done, "s");
    report.E2e("latency_mean_ms", Mean(latency_ms), "ms");
    report.E2e("latency_p99_ms", Quantile(latency_ms, 0.99), "ms");
    return report;
  }

  // Checked segment: plan-contract validation and the runtime audit
  // checkers (conservation, lifecycle, cost-model sanity).
  tetri::audit::Auditor auditor;
  auditor.AddChecker(
      std::make_unique<tetri::audit::RuntimeConservationChecker>());
  auditor.AddChecker(
      std::make_unique<tetri::audit::RequestLifecycleChecker>());
  tetri::audit::InstallCostModelChecker(auditor, &table);
  config.traced = false;
  config.validate = true;
  config.audit = &auditor;
  config.max_requests = kCheckedRequests;
  const ClosedLoopResult checked = RunClosedLoop(topology, table, config);
  AddClosedLoopChecks(checked, &report);
  if (!auditor.clean()) report.Fail("audit: " + auditor.Summary());
  if (checked.plan.calls == 0) report.Fail("checked segment made no Plan call");

  const double rounds =
      static_cast<double>(std::max<std::uint64_t>(traced.stats.rounds, 1));
  const double self_s =
      static_cast<double>(traced.planner_cpu_ns - traced.plan.plan_ns) / 1e9;
  report.Layer("serving.self_s", self_s, "s");
  report.Layer("serving.self_us_per_round", self_s / rounds * 1e6, "us");
  report.Layer("serving.assignments",
               static_cast<double>(traced.stats.assignments), "count");
  // The runtime models neither re-sharding stalls nor latent transfers.
  report.Layer("serving.reconfigs", 0.0, "count");
  report.Layer("serving.latent_transfers", 0.0, "count");
  report.Layer("serving.policy_drops",
               static_cast<double>(traced.stats.dropped), "count");
  AddCoreMetrics(traced.plan, static_cast<double>(traced.plan.plan_ns) / 1e9,
                 traced.plan.call_us, &report);
  AddRuntimeMetrics(traced, &report);
  report.Layer("costmodel.profile_s", profile_s, "s");
  report.Layer("workload.build_s", build_s, "s");
  report.Layer("trace.overhead_pct",
               (UsPerRequest(traced) / UsPerRequest(plain) - 1.0) * 100.0,
               "%");
  return report;
}

}  // namespace perfbench
