#include "probe.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace perfbench {
namespace {

std::int64_t
ReadClock(clockid_t clock)
{
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

std::int64_t MonoNs() { return ReadClock(CLOCK_MONOTONIC); }
std::int64_t ThreadCpuNs() { return ReadClock(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t ProcessCpuNs() { return ReadClock(CLOCK_PROCESS_CPUTIME_ID); }

double
Quantile(std::vector<double> values, double q)
{
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double
Mean(const std::vector<double>& values)
{
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double
Min(const std::vector<double>& values)
{
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

SpanLog&
SpanLog::Get()
{
  static SpanLog log;
  return log;
}

std::int64_t
SpanLog::NewId()
{
  if (!enabled_) return kNoParent;
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

SpanLog::Buffer*
SpanLog::ThreadBuffer()
{
  // One buffer per (thread, process): the log is a process singleton.
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    tetri::util::MutexLock lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->tid = static_cast<int>(buffers_.size());
    buffer->spans.reserve(4096);
  }
  return buffer;
}

void
SpanLog::Record(std::int64_t id, const char* name, std::int64_t start_ns,
                std::int64_t end_ns, std::int64_t parent,
                std::int64_t request)
{
  if (!enabled_ || id == kNoParent) return;
  Buffer* buffer = ThreadBuffer();
  if (buffer->spans.size() >= kMaxSpansPerThread) {
    ++buffer->dropped;
    return;
  }
  buffer->spans.push_back(Span{name, start_ns, end_ns, id, parent, request});
}

std::uint64_t
SpanLog::kept() const
{
  tetri::util::MutexLock lock(mu_);
  std::uint64_t n = 0;
  for (const auto& b : buffers_) n += b->spans.size();
  return n;
}

std::uint64_t
SpanLog::dropped() const
{
  tetri::util::MutexLock lock(mu_);
  std::uint64_t n = 0;
  for (const auto& b : buffers_) n += b->dropped;
  return n;
}

bool
SpanLog::WriteChromeJson(const std::string& path,
                         const std::string& meta) const
{
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  tetri::util::MutexLock lock(mu_);
  std::int64_t origin = 0;
  bool first = true;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      if (first || s.start_ns < origin) origin = s.start_ns;
      first = false;
    }
  }
  std::fprintf(out, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  first = true;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      std::fprintf(out,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %lld, \"parent\": %lld, "
                   "\"request\": %lld}}",
                   first ? "" : ",\n", s.name, b->tid,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request));
      first = false;
    }
  }
  std::fprintf(out, "\n], \"otherData\": {%s}}\n", meta.c_str());
  return std::fclose(out) == 0;
}

}  // namespace perfbench
