// Shared helpers for the experiment harnesses (bench_*).
//
// Each harness regenerates one experiment from DESIGN.md's index: it
// prints the series/rows the paper's claim corresponds to and then runs
// "shape checks" — assertions about who wins, by what rough factor, and
// where crossovers fall. Absolute numbers differ from the paper (our
// substrate is a simulator); shapes must hold.

#ifndef PSO_BENCH_BENCH_UTIL_H_
#define PSO_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/log.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/progress.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "tools/flags.h"

namespace pso::bench {

/// Collects named pass/fail assertions and renders a summary. The process
/// exits nonzero if any shape check failed, so CI catches regressions.
class ShapeChecks {
 public:
  /// Records one check.
  void Check(bool ok, const std::string& description) {
    results_.emplace_back(ok, description);
    if (!ok) ++failures_;
  }

  /// Convenience: value within [lo, hi].
  void CheckBetween(double value, double lo, double hi,
                    const std::string& what) {
    Check(value >= lo && value <= hi,
          StrFormat("%s = %.4f in [%.4f, %.4f]", what.c_str(), value, lo,
                    hi));
  }

  /// Convenience: a > b (who wins).
  void CheckGreater(double a, double b, const std::string& what) {
    Check(a > b, StrFormat("%s (%.4f > %.4f)", what.c_str(), a, b));
  }

  /// Prints the verdicts; returns the exit code (0 iff all passed).
  int Finish(const std::string& experiment) const {
    std::printf("\n-- shape checks: %s --\n", experiment.c_str());
    for (const auto& [ok, what] : results_) {
      std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
    }
    std::printf("%s: %zu/%zu shape checks passed\n", experiment.c_str(),
                results_.size() - failures_, results_.size());
    return failures_ == 0 ? 0 : 1;
  }

  /// The recorded (pass, description) verdicts, in insertion order.
  const std::vector<std::pair<bool, std::string>>& results() const {
    return results_;
  }
  size_t failures() const { return failures_; }

 private:
  std::vector<std::pair<bool, std::string>> results_;
  size_t failures_ = 0;
};

/// Prints the standard experiment banner.
inline void Banner(const std::string& id, const std::string& claim) {
  std::printf("==========================================================\n");
  std::printf("%s\n", id.c_str());
  std::printf("Paper claim: %s\n", claim.c_str());
  std::printf("==========================================================\n");
}

/// Monotonic wall-clock stopwatch for the serial-vs-parallel reports.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = std::chrono::steady_clock::now(); }

  /// Seconds elapsed since construction / the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Parallel-run configuration shared by the harnesses: worker pool (null
/// when running serially) and the requested thread count.
struct ParallelConfig {
  std::unique_ptr<ThreadPool> pool;  ///< Null at threads == 1.
  size_t threads = 1;

  ThreadPool* get() const { return pool.get(); }
};

/// Builds the pool for `threads` workers (0 = hardware concurrency);
/// 1 runs serially on the calling thread — exact legacy behavior.
inline ParallelConfig MakeParallelConfig(size_t threads) {
  ParallelConfig cfg;
  cfg.threads = threads == 0 ? ThreadPool::HardwareThreads() : threads;
  if (cfg.threads > 1) cfg.pool = std::make_unique<ThreadPool>(cfg.threads);
  return cfg;
}

/// Prints the serial-vs-parallel wall-clock comparison for one workload.
/// Determinism makes the two runs produce identical numbers, so the only
/// difference worth reporting is time. Speedup is informational: on a
/// single-core host (or threads == 1) there is nothing to win.
inline void ReportSpeedup(const std::string& what, double serial_seconds,
                          double parallel_seconds, size_t threads) {
  double speedup =
      parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;
  std::printf(
      "\n-- wall clock: %s --\n  serial (1 thread): %.3fs   parallel "
      "(%zu threads): %.3fs   speedup: %.2fx\n",
      what.c_str(), serial_seconds, threads, parallel_seconds, speedup);
}

/// Per-run reporting state shared by every harness: parsed CLI flags, the
/// run's wall-clock stopwatch (started at construction), and the --json /
/// --trace destinations. Create one at the top of Run() via
/// MakeBenchContext.
struct BenchContext {
  std::string bench_name;  ///< Binary name, e.g. "bench_recon_lp".
  std::string json_path;   ///< Empty when --json was not given.
  std::string trace_path;  ///< Empty when --trace was not given.
  size_t threads = 1;       ///< Resolved --threads value.
  int64_t watchdog_ms = 0;  ///< Resolved --solver-watchdog-ms (0 = off).
  WallTimer timer;          ///< Wall clock for the whole run.
};

/// Parses the standard harness flags (--json <path>, --threads N,
/// --trace <path>, --log-level {debug,info,warn,error},
/// --solver-watchdog-ms N), starts the run stopwatch, arms the stall
/// watchdog when requested, and — when --trace was given — enables the
/// global trace collector. Unknown or malformed flags print usage to
/// stderr and exit non-zero.
inline BenchContext MakeBenchContext(const std::string& bench_name, int argc,
                                     char** argv) {
  tools::Flags flags(argc, argv);
  const std::vector<tools::FlagSpec> specs = {
      {"json", tools::FlagSpec::Type::kString},
      {"threads", tools::FlagSpec::Type::kInt},
      {"trace", tools::FlagSpec::Type::kString},
      {"log-level", tools::FlagSpec::Type::kString},
      {"solver-watchdog-ms", tools::FlagSpec::Type::kInt},
  };
  std::vector<std::string> errors;
  tools::ValidateFlags(flags, specs, &errors);
  // bench_micro forwards --benchmark_* to google-benchmark; those are not
  // ours to reject.
  for (size_t i = errors.size(); i > 0; --i) {
    if (errors[i - 1].find("--benchmark_") != std::string::npos) {
      errors.erase(errors.begin() + static_cast<ptrdiff_t>(i - 1));
    }
  }
  if (!errors.empty()) {
    for (const std::string& e : errors) {
      std::fprintf(stderr, "%s: %s\n", bench_name.c_str(), e.c_str());
    }
    std::fprintf(stderr,
                 "usage: %s [--json FILE] [--threads N] [--trace FILE] "
                 "[--log-level debug|info|warn|error] "
                 "[--solver-watchdog-ms N]\n",
                 bench_name.c_str());
    std::exit(2);
  }
  const std::string level_name = flags.GetString("log-level", "");
  if (!level_name.empty()) {
    log::Level level;
    if (!log::ParseLevel(level_name, &level)) {
      std::fprintf(stderr,
                   "%s: invalid --log-level '%s' "
                   "(use debug|info|warn|error)\n",
                   bench_name.c_str(), level_name.c_str());
      std::exit(2);
    }
    log::SetMinLevel(level);
  }
  BenchContext ctx;
  ctx.bench_name = bench_name;
  ctx.json_path = flags.GetString("json", "");
  ctx.trace_path = flags.GetString("trace", "");
  ctx.threads = flags.GetThreads();
  ctx.watchdog_ms = flags.GetInt("solver-watchdog-ms", 0);
  if (ctx.watchdog_ms > 0) {
    progress::Watchdog::Global().Start(ctx.watchdog_ms);
  }
  if (!ctx.trace_path.empty()) {
    trace::Collector::Global().Enable();
    // Remembered so an aborting PSO_CHECK still flushes a partial trace.
    trace::Collector::Global().SetFlushPath(ctx.trace_path);
  }
  return ctx;
}

/// The histogram every harness records its main-loop iteration latency
/// into; BENCH_*.json reports its tail quantiles and throughput, and CI
/// asserts it is present.
inline constexpr const char* kMainLoopHist = "bench.main_loop";

/// Runs one main-loop iteration under the per-iteration latency span:
/// the interval lands in the `bench.main_loop` timer + histogram, giving
/// every harness p50..p999 tail latencies and derived events/sec.
template <class Fn>
auto TimedIteration(Fn&& fn) {
  metrics::ScopedSpan span{std::string(kMainLoopHist)};
  return fn();
}

/// Peak resident set size of this process in bytes (0 where the platform
/// offers no getrusage). Linux reports ru_maxrss in KiB.
inline uint64_t PeakRssBytes() {
#if defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<uint64_t>(ru.ru_maxrss);  // bytes on macOS
#elif defined(__unix__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<uint64_t>(ru.ru_maxrss) * 1024;
#else
  return 0;
#endif
}

/// The git revision baked in at configure time (root CMakeLists.txt).
inline const char* GitSha() {
#ifdef PSO_GIT_SHA
  return PSO_GIT_SHA;
#else
  return "unknown";
#endif
}

/// Serializes one finished run as the BENCH_*.json document (schema
/// documented in EXPERIMENTS.md). `snapshot.counters` is the
/// deterministic section: same seed + same thread count => identical
/// values on every run. Wall clock, timers, gauges, histogram quantiles,
/// and throughput are run-dependent; histogram event *counts* are
/// deterministic and gated by tools/bench_diff.py.
inline std::string BenchReportJson(const BenchContext& ctx,
                                   const std::string& experiment,
                                   const ShapeChecks& checks,
                                   const metrics::Snapshot& snapshot) {
  const double wall_seconds = ctx.timer.Seconds();
  std::string out = "{\n";
  out += "  \"schema_version\": 3,\n";
  out += StrFormat("  \"bench\": \"%s\",\n",
                   metrics::JsonEscape(ctx.bench_name).c_str());
  out += StrFormat("  \"experiment\": \"%s\",\n",
                   metrics::JsonEscape(experiment).c_str());
  out += StrFormat("  \"git_sha\": \"%s\",\n",
                   metrics::JsonEscape(GitSha()).c_str());
  out += StrFormat("  \"threads\": %zu,\n", ctx.threads);
  out += StrFormat("  \"wall_clock_seconds\": %.6f,\n", wall_seconds);
  out += StrFormat("  \"peak_rss_bytes\": %llu,\n",
                   static_cast<unsigned long long>(PeakRssBytes()));
  out += StrFormat("  \"watchdog_ms\": %lld,\n",
                   static_cast<long long>(ctx.watchdog_ms));
  out += StrFormat(
      "  \"watchdog_stalls\": %llu,\n",
      static_cast<unsigned long long>(progress::Watchdog::Global().stalls()));
  // Derived events/sec per histogram over the run's measured window —
  // the "queries per second" shape the future QueryService reports
  // per-client. Run-dependent (wall clock in the denominator).
  out += "  \"throughput\": {";
  {
    bool first = true;
    for (const auto& [name, hv] : snapshot.histograms) {
      if (!first) out += ", ";
      first = false;
      const double rate = wall_seconds > 0.0
                              ? static_cast<double>(hv.count) / wall_seconds
                              : 0.0;
      out += StrFormat("\"%s\": %.6f", metrics::JsonEscape(name).c_str(),
                       rate);
    }
  }
  out += "},\n";
  out += StrFormat("  \"trace_file\": \"%s\",\n",
                   metrics::JsonEscape(ctx.trace_path).c_str());
  out += "  \"shape_checks\": [";
  for (size_t i = 0; i < checks.results().size(); ++i) {
    const auto& [ok, what] = checks.results()[i];
    if (i > 0) out += ",";
    out += StrFormat("\n    {\"pass\": %s, \"description\": \"%s\"}",
                     ok ? "true" : "false",
                     metrics::JsonEscape(what).c_str());
  }
  out += checks.results().empty() ? "],\n" : "\n  ],\n";
  out += StrFormat("  \"checks_passed\": %zu,\n",
                   checks.results().size() - checks.failures());
  out += StrFormat("  \"checks_failed\": %zu,\n", checks.failures());
  out += StrFormat("  \"metrics\": %s\n",
                   metrics::SnapshotToJson(snapshot).c_str());
  out += "}\n";
  return out;
}

/// Finishes a harness run: records `pool`'s load-balance gauges, prints
/// the shape-check summary, writes the execution trace when --trace was
/// given, and — when --json was given — writes the machine-readable
/// report. Returns the process exit code (nonzero on any failed check or
/// an unwritable --json path).
inline int FinishBench(const BenchContext& ctx, const std::string& experiment,
                       const ShapeChecks& checks,
                       const ThreadPool* pool = nullptr) {
  RecordPoolGauges(pool);
  // Disarm before snapshotting so the stall count in the report is final
  // and the background thread is joined before process teardown.
  progress::Watchdog::Global().Stop();
  int rc = checks.Finish(experiment);
  if (!ctx.trace_path.empty()) {
    if (trace::Collector::Global().WriteChromeJson(ctx.trace_path)) {
      std::printf("trace: %s\n", ctx.trace_path.c_str());
    }
    trace::Collector::Global().Disable();
  }
  if (!ctx.json_path.empty()) {
    metrics::Snapshot snapshot = metrics::Registry::Global().TakeSnapshot();
    std::string json = BenchReportJson(ctx, experiment, checks, snapshot);
    std::FILE* f = std::fopen(ctx.json_path.c_str(), "w");
    if (f == nullptr ||
        std::fwrite(json.data(), 1, json.size(), f) != json.size()) {
      std::fprintf(stderr, "cannot write JSON report to '%s'\n",
                   ctx.json_path.c_str());
      if (f != nullptr) std::fclose(f);
      return rc != 0 ? rc : 1;
    }
    std::fclose(f);
    std::printf("JSON report: %s\n", ctx.json_path.c_str());
  }
  return rc;
}

}  // namespace pso::bench

#endif  // PSO_BENCH_BENCH_UTIL_H_
