/**
 * @file
 * Measurement primitives: clocks, exact sample quantiles, and the span
 * log of traced runs.
 *
 * Spans are recorded from the benchmark's own files around the calls
 * into each layer (name, start, end, parent span, request id), kept in
 * per-thread memory and written once at exit as Chrome trace-event
 * JSON (loadable in ui.perfetto.dev or chrome://tracing). Recording is
 * a no-op unless the log is enabled, so untraced runs pay one branch.
 */
#ifndef PERFBENCH_PROBE_H
#define PERFBENCH_PROBE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.h"

namespace perfbench {

/** CLOCK_MONOTONIC, nanoseconds (the launcher stamps the same clock). */
std::int64_t MonoNs();
/** CPU time of the calling thread, nanoseconds. */
std::int64_t ThreadCpuNs();
/** CPU time of the whole process, nanoseconds. */
std::int64_t ProcessCpuNs();

/** Quantile @p q in [0,1] by linear interpolation between order
 * statistics (the "type 7" rule); 0 for an empty sample. */
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);
double Min(const std::vector<double>& values);

/** Reserved request id for spans that belong to no request. */
inline constexpr std::int64_t kNoRequest = -1;
/** Reserved span id for root spans. */
inline constexpr std::int64_t kNoParent = -1;

/** One recorded interval. */
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = kNoParent;
  std::int64_t request = kNoRequest;
};

/**
 * Process-wide span log. Each recording thread appends to its own
 * buffer (registered once under a mutex), so the generator and the
 * runtime's planner thread never contend. Each buffer keeps at most
 * kMaxSpansPerThread spans; later ones are counted as dropped, which
 * bounds memory and the size of the written file on long runs.
 */
class SpanLog {
 public:
  static constexpr std::size_t kMaxSpansPerThread = 50000;

  /** The single log of this process. */
  static SpanLog& Get();

  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /** A fresh span id, so children can name a parent that is still
   * open; kNoParent when the log is disabled. */
  std::int64_t NewId();

  /** Record span @p id over [start_ns, end_ns] (no-op when disabled
   * or when @p id is kNoParent). */
  void Record(std::int64_t id, const char* name, std::int64_t start_ns,
              std::int64_t end_ns, std::int64_t parent = kNoParent,
              std::int64_t request = kNoRequest);

  /** Write every kept span as Chrome trace-event JSON; @p meta is a
   * JSON object body (without braces) placed under "otherData".
   * Returns false when the file cannot be written. */
  bool WriteChromeJson(const std::string& path,
                       const std::string& meta) const;

  std::uint64_t kept() const;
  std::uint64_t dropped() const;

 private:
  struct Buffer {
    int tid = 0;
    std::vector<Span> spans;
    std::uint64_t dropped = 0;
  };

  Buffer* ThreadBuffer();

  bool enabled_ = false;
  std::atomic<std::int64_t> next_id_{0};
  mutable tetri::util::Mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_ TETRI_GUARDED_BY(mu_);
};

/** Records one span over its lifetime (when the log is enabled). */
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::int64_t parent = kNoParent,
             std::int64_t request = kNoRequest)
      : id_(SpanLog::Get().NewId()), name_(name), parent_(parent),
        request_(request), start_ns_(MonoNs()) {}
  ~ScopedSpan() {
    SpanLog::Get().Record(id_, name_, start_ns_, MonoNs(), parent_,
                          request_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

 private:
  std::int64_t id_;
  const char* name_;
  std::int64_t parent_;
  std::int64_t request_;
  std::int64_t start_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H
