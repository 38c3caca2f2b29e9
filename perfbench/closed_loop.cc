#include "closed_loop.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <sstream>

#include "core/tetri_scheduler.h"
#include "probe.h"
#include "util/mutex.h"

namespace perfbench {

using tetri::runtime::AdmitOutcome;
using tetri::runtime::Completion;

namespace {

constexpr std::size_t kMaxMessages = 8;
/** Ring of per-request slots; far larger than any window, so a slot is
 * only reused long after its request must have completed. */
constexpr std::size_t kRing = 8192;
/** Slack for comparing the runtime's whole-microsecond clock with the
 * generator's: rounding of both stamps plus the calibration read. */
constexpr double kClockSlackNs = 2000.0;

/** Counting semaphore of in-flight slots: the generator acquires, the
 * completion callback releases. */
class Window {
 public:
  explicit Window(int slots) : available_(slots) {}

  /** Take a slot; false when none came back within @p timeout_ns. */
  bool Acquire(std::int64_t timeout_ns) {
    const std::int64_t deadline = MonoNs() + timeout_ns;
    tetri::util::MutexLock lock(mu_);
    while (available_ == 0) {
      const std::int64_t left = deadline - MonoNs();
      if (left <= 0) return false;
      cv_.WaitForUs(mu_, static_cast<double>(left) / 1e3);
    }
    --available_;
    return true;
  }
  void Release() {
    tetri::util::MutexLock lock(mu_);
    ++available_;
    cv_.Signal();
  }

 private:
  tetri::util::Mutex mu_;
  tetri::util::CondVar cv_;
  int available_ TETRI_GUARDED_BY(mu_);
};

enum SlotState : int { kFree = 0, kPending = 1, kDone = 2 };

struct Slot {
  // Written by the generator before Submit; Submit's queue hand-off
  // orders these writes before the planner thread's callback reads.
  std::int64_t id = -1;
  std::int64_t submit_ns = 0;
  std::int64_t budget_us = 0;
  int steps = 0;
  std::int64_t span_id = -1;
  std::atomic<int> state{kFree};
};

/** Everything the callback (planner thread) touches. */
struct Ledger {
  explicit Ledger(int window) : slots(kRing), window(window) {}

  std::vector<Slot> slots;
  Window window;
  /** Runtime clock origin on MonoNs, bracketed by two reads. */
  double origin_lo_ns = 0.0;
  double origin_hi_ns = 0.0;
  std::function<bool(Completion&)> tamper;

  // Owned by the callback thread until the runtime is drained.
  std::uint64_t callbacks = 0;
  std::uint64_t completed = 0;
  std::uint64_t met = 0;
  std::vector<float> latency_us;
  std::vector<float> inside_us;
  std::vector<std::string> failures;
  std::uint64_t bad_requests = 0;

  void Fail(const std::string& what) {
    ++bad_requests;
    if (failures.size() < kMaxMessages) failures.push_back(what);
  }

  void OnComplete(Completion c) {
    const std::int64_t now = MonoNs();
    if (tamper && !tamper(c)) return;
    ++callbacks;
    Slot& slot = slots[static_cast<std::size_t>(c.id) % kRing];
    const std::string who = "request " + std::to_string(c.id);
    if (slot.id != c.id) {
      Fail("completion for unknown " + who);
      window.Release();
      return;
    }
    if (slot.state.exchange(kDone) != kPending) {
      Fail(who + " completed twice");
      return;
    }
    SpanLog::Get().Record(SpanLog::Get().NewId(), "runtime.on_complete",
                          now, MonoNs(), slot.span_id, c.id);
    latency_us.push_back(static_cast<float>(now - slot.submit_ns) / 1e3f);
    inside_us.push_back(static_cast<float>(c.finished_us - c.admitted_us));
    if (c.outcome == tetri::metrics::Outcome::kCompleted) {
      ++completed;
      if (c.steps_done != slot.steps) {
        Fail(who + " completed " + std::to_string(c.steps_done) + " of " +
             std::to_string(slot.steps) + " steps");
      }
      if (c.finished_us - c.admitted_us <= slot.budget_us) ++met;
    }
    // Generator interval [submit, now] must enclose the runtime's
    // [admitted, finished], mapped onto the generator's clock.
    const double admitted_ns =
        origin_hi_ns + static_cast<double>(c.admitted_us) * 1e3;
    const double finished_ns =
        origin_lo_ns + static_cast<double>(c.finished_us) * 1e3;
    if (c.finished_us < c.admitted_us ||
        admitted_ns + kClockSlackNs < static_cast<double>(slot.submit_ns) ||
        finished_ns - kClockSlackNs > static_cast<double>(now)) {
      std::ostringstream msg;
      msg << who << ": runtime interval [" << c.admitted_us << ", "
          << c.finished_us << "]us escapes the generator's";
      Fail(msg.str());
    }
    window.Release();
  }
};

}  // namespace

ClosedLoopResult
RunClosedLoop(const tetri::cluster::Topology& topology,
              const tetri::costmodel::LatencyTable& table,
              const ClosedLoopConfig& config)
{
  ClosedLoopResult out;
  const auto& shapes = *config.shapes;
  auto ledger = std::make_unique<Ledger>(kWindow);
  ledger->tamper = config.tamper;
  // Size the per-request samples for the expected rate up front so the
  // callback rarely reallocates while the clock runs.
  ledger->latency_us.reserve(1 << 20);
  ledger->inside_us.reserve(1 << 20);

  tetri::core::TetriScheduler tetri_scheduler(&table);
  TimedScheduler::Options probe;
  probe.time_calls = config.traced;
  probe.validate = config.validate;
  probe.book_gpu_time = true;
  TimedScheduler scheduler(&tetri_scheduler, probe);

  tetri::runtime::RuntimeOptions options;
  options.queue_capacity = static_cast<std::size_t>(kWindow) * 4;
  options.overflow = tetri::runtime::OverflowPolicy::kBlock;
  options.num_workers = 1;
  options.watchdog_interval_us = 0.0;
  options.audit = config.audit;
  Ledger* l = ledger.get();
  options.on_complete = [l](const Completion& c) { l->OnComplete(c); };

  const std::int64_t construct_start = MonoNs();
  tetri::runtime::ServingRuntime rt(&scheduler, &topology, &table,
                                    options);
  out.construct_s =
      static_cast<double>(MonoNs() - construct_start) / 1e9;
  {
    const std::int64_t a = MonoNs();
    const double now_us = static_cast<double>(rt.NowUs());
    const std::int64_t b = MonoNs();
    ledger->origin_lo_ns = static_cast<double>(a) - now_us * 1e3 - 500.0;
    ledger->origin_hi_ns = static_cast<double>(b) - now_us * 1e3 + 500.0;
  }

  std::vector<std::string> gen_failures;
  std::uint64_t gen_bad = 0;
  auto gen_fail = [&](const std::string& what) {
    ++gen_bad;
    if (gen_failures.size() < kMaxMessages) gen_failures.push_back(what);
  };

  const auto lost_after_ns =
      static_cast<std::int64_t>(config.lost_after_s * 1e9);
  const std::int64_t start_ns = MonoNs();
  const std::int64_t stop_ns =
      start_ns + static_cast<std::int64_t>(config.seconds * 1e9);
  const std::int64_t cpu0 = ProcessCpuNs();
  const std::int64_t gen_cpu0 = ThreadCpuNs();
  const std::int64_t planner_cpu0 = scheduler.PlannerCpuNs();

  std::uint64_t k = 0;
  while (true) {
    if (k % kCycle == 0 && k > 0 &&
        (MonoNs() >= stop_ns ||
         (config.max_requests > 0 && k >= config.max_requests))) {
      break;
    }
    const auto& shape = shapes[k % shapes.size()];
    const std::int64_t wait0 = config.traced ? MonoNs() : 0;
    if (!ledger->window.Acquire(lost_after_ns)) {
      gen_fail("no request completed within " +
               std::to_string(config.lost_after_s) + " s");
      break;
    }
    Slot& slot = ledger->slots[k % kRing];
    if (slot.state.load() == kPending) {
      gen_fail("request " + std::to_string(slot.id) + " never completed");
    }
    slot.id = static_cast<std::int64_t>(k);
    slot.steps = shape.num_steps;
    slot.budget_us = shape.deadline_us - shape.arrival_us;
    slot.span_id = SpanLog::Get().NewId();
    slot.state.store(kPending);
    const std::int64_t submit0 = MonoNs();
    slot.submit_ns = submit0;
    tetri::RequestId id = tetri::kInvalidRequest;
    const AdmitOutcome admit = rt.Submit(shape.tenant, shape.resolution,
                                         shape.num_steps, slot.budget_us,
                                         &id);
    if (config.traced) {
      const std::int64_t submit1 = MonoNs();
      out.slot_wait_us.push_back(static_cast<float>(submit0 - wait0) / 1e3f);
      out.submit_us.push_back(static_cast<float>(submit1 - submit0) / 1e3f);
      SpanLog::Get().Record(slot.span_id, "runtime.Submit", submit0,
                            submit1, kNoParent,
                            static_cast<std::int64_t>(k));
    }
    if (admit != AdmitOutcome::kAdmitted) {
      gen_fail("request " + std::to_string(k) + " not admitted");
      slot.state.store(kFree);
      ledger->window.Release();
    } else if (id != static_cast<tetri::RequestId>(k)) {
      gen_fail("runtime assigned id " + std::to_string(id) + " to the " +
               std::to_string(k) + "th submission");
    }
    ++k;
  }
  // Wait for the last window of requests, then stop the clocks.
  for (int i = 0; i < kWindow; ++i) {
    if (!ledger->window.Acquire(lost_after_ns)) break;
  }
  const std::int64_t end_ns = MonoNs();
  out.runtime_cpu_ns =
      (ProcessCpuNs() - cpu0) - (ThreadCpuNs() - gen_cpu0);
  const std::int64_t planner_cpu1 = scheduler.PlannerCpuNs();
  if (planner_cpu0 >= 0 && planner_cpu1 >= 0) {
    out.planner_cpu_ns = planner_cpu1 - planner_cpu0;
  } else if (planner_cpu1 >= 0) {
    out.planner_cpu_ns = planner_cpu1;
  }
  out.submitted = k;
  out.elapsed_s = static_cast<double>(end_ns - start_ns) / 1e9;

  {
    ScopedSpan span("runtime.Drain");
    const std::int64_t d0 = MonoNs();
    rt.Drain();
    out.drain_ms = static_cast<double>(MonoNs() - d0) / 1e6;
  }
  // The runtime bumps its counters after on_complete returns, so they
  // are read once Drain has joined the planner.
  {
    ScopedSpan span("runtime.stats");
    out.stats = rt.stats();
  }
  std::vector<tetri::runtime::TenantRuntimeStats> tenants;
  {
    ScopedSpan span("runtime.tenant_stats");
    tenants = rt.tenant_stats();
  }
  // Drain joined the planner: the ledger is ours now.
  out.plan = scheduler.stats();
  out.plan_latency_us = rt.plan_latency_us().Snapshot();
  for (const auto& t : tenants) {
    if (!out.queue_delay_us.valid()) {
      out.queue_delay_us = t.queue_delay_us;
    } else {
      out.queue_delay_us.Merge(t.queue_delay_us);
    }
  }

  out.callbacks = ledger->callbacks;
  out.completed = ledger->completed;
  out.met = ledger->met;
  out.latency_us = std::move(ledger->latency_us);
  out.inside_us = std::move(ledger->inside_us);
  out.failures = std::move(gen_failures);
  for (auto& f : ledger->failures) {
    if (out.failures.size() < kMaxMessages) out.failures.push_back(f);
  }
  out.bad_requests = gen_bad + ledger->bad_requests;

  // Every slot must have completed by now.
  std::uint64_t open = 0;
  for (const Slot& slot : ledger->slots) {
    if (slot.state.load() == kPending) ++open;
  }
  auto fail = [&](const std::string& what) {
    if (out.failures.size() < kMaxMessages) out.failures.push_back(what);
  };
  if (open > 0) {
    out.bad_requests += open;
    fail(std::to_string(open) + " submitted requests never completed");
  }
  const auto& s = out.stats;
  if (s.completed + s.dropped + s.failed != s.admission.admitted ||
      s.admission.admitted != out.submitted || s.active != 0) {
    std::ostringstream msg;
    msg << "runtime counts completed=" << s.completed
        << " dropped=" << s.dropped << " failed=" << s.failed
        << " active=" << s.active << " admitted=" << s.admission.admitted
        << " vs generator " << out.submitted;
    fail(msg.str());
    ++out.bad_requests;
  }
  if (out.callbacks != out.submitted) {
    fail(std::to_string(out.callbacks) + " callbacks for " +
         std::to_string(out.submitted) + " submissions");
  }
  if (out.queue_delay_us.count() != out.submitted) {
    fail("queue-delay histograms count " +
         std::to_string(out.queue_delay_us.count()) + " of " +
         std::to_string(out.submitted) + " requests");
    ++out.bad_requests;
  }
  return out;
}

}  // namespace perfbench
