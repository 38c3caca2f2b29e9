/**
 * @file
 * Entry point of the end-to-end benchmark binary (run it through
 * run.py, which builds it first):
 *
 *   perfbench --workload sim-long|sim-burst|rt-closed --seed N
 *             --seconds S --trace 0|1 [--t0-ns NS] [--requests N]
 *   perfbench --self-test
 *
 * Prints one line per metric ("metric <name> <value> <unit>"), the
 * run's notes and check failures, and as its last line one JSON object
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics when untraced, the per-layer ones when traced. Traced runs
 * write their spans to .bench_out/ under the working directory. Exits 1
 * when a check failed, 2 on a usage error.
 */
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "probe.h"

namespace perfbench {

namespace {

std::int64_t g_main_start_ns = 0;

void
PrintJsonString(const std::string& s)
{
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

int
Usage(const char* argv0)
{
  std::fprintf(stderr,
               "usage: %s --workload sim-long|sim-burst|rt-closed "
               "--seed N --seconds S --trace 0|1 [--t0-ns NS] "
               "[--requests N]\n"
               "       %s --self-test\n",
               argv0, argv0);
  return 2;
}

}  // namespace

void
Report::Fail(std::string message)
{
  failures.push_back(std::move(message));
}

double
SetupSeconds(const RunOptions& options)
{
  const std::int64_t t0 =
      options.t0_ns > 0 ? options.t0_ns : g_main_start_ns;
  return static_cast<double>(MonoNs() - t0) / 1e9;
}

}  // namespace perfbench

int
main(int argc, char** argv)
{
  using namespace perfbench;
  g_main_start_ns = MonoNs();

  RunOptions options;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if ((v = value()) == nullptr) return Usage(argv[0]);
    if (arg == "--workload") {
      options.workload = v;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--t0-ns") {
      options.t0_ns = std::strtoll(v, nullptr, 10);
    } else if (arg == "--requests") {
      options.requests = std::atoi(v);
    } else {
      return Usage(argv[0]);
    }
  }
  if (!self_test && !(options.seconds > 0.0)) return Usage(argv[0]);

  if (options.trace) SpanLog::Get().Enable();
  Report report;
  if (self_test) {
    report = RunSelfTest();
  } else if (options.workload == "sim-long") {
    report = RunSimLong(options);
  } else if (options.workload == "sim-burst") {
    report = RunSimBurst(options);
  } else if (options.workload == "rt-closed") {
    report = RunRtClosed(options);
  } else {
    return Usage(argv[0]);
  }

  if (options.trace) {
    mkdir(".bench_out", 0755);
    // One file per workload: the latest traced run's spans.
    const std::string path = ".bench_out/spans-" + options.workload + ".json";
    std::string meta = "\"workload\": \"" + options.workload +
                       "\", \"seed\": " + std::to_string(options.seed) +
                       ", \"dropped_spans\": " +
                       std::to_string(SpanLog::Get().dropped());
    if (!SpanLog::Get().WriteChromeJson(path, meta)) {
      report.Fail("cannot write " + path);
    } else {
      std::printf("spans: %llu kept, %llu dropped, written to %s\n",
                  static_cast<unsigned long long>(SpanLog::Get().kept()),
                  static_cast<unsigned long long>(SpanLog::Get().dropped()),
                  path.c_str());
    }
  }

  // Traced runs also prove the checks live: each must fire on a
  // corrupted input.
  if (options.trace) {
    Report checks = RunSelfTest();
    for (auto& f : checks.failures) report.Fail(std::move(f));
  }

  const auto& metrics = options.trace ? report.per_layer : report.end_to_end;
  for (const auto& note : report.notes) std::printf("note: %s\n", note.c_str());
  for (const auto& m : report.end_to_end) {
    std::printf("metric %s %.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& m : report.per_layer) {
    std::printf("metric %s %.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& m : metrics) {
    if (!std::isfinite(m.value)) report.Fail(m.name + " is not finite");
  }
  if (report.attempted == 0 && !self_test) report.Fail("nothing attempted");
  for (const auto& f : report.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  const bool correct = report.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  for (const auto& m : metrics) {
    if (!first) std::printf(", ");
    first = false;
    PrintJsonString(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ",
                std::isfinite(m.value) ? m.value : 0.0);
    PrintJsonString(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
