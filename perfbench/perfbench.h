// Shared types for the repository benchmark (see NOTES.md).
//
// Each workload generates its inputs from the run's seed, times the
// library's public entry points from outside, checks the outputs, and
// hands a WorkloadResult back to main.cc, which turns it into the metric
// line the benchmark prints last.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Set-up is repeated this many times per run and its median reported,
/// so a millisecond-scale set-up still gives a steady figure.
constexpr int kSetupRepeats = 15;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line settings of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  /// Per-layer run: an untraced pass, then a traced pass over the same
  /// inputs (the difference is the tracing overhead).
  bool trace = false;
};

/// What one workload run reports.
struct WorkloadResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Wall time of each repetition of the workload's set-up.
  std::vector<double> setup_s;
  /// The untraced pass's timed window and the ops completed in it.
  double window_s = 0.0;
  uint64_t completed = 0;
  /// Latency of every attempted op in the untraced pass, seconds.
  std::vector<double> op_s;
  /// Per-layer metrics from the traced pass, by name.
  std::map<std::string, double> layer;
  /// Deterministic work totals of the untraced pass.
  std::map<std::string, uint64_t> fingerprint;
  /// One line per failed correctness check.
  std::vector<std::string> problems;

  void Fail(std::string problem) {
    correct = false;
    problems.push_back(std::move(problem));
  }
};

WorkloadResult RunRecon(const RunConfig& config);
WorkloadResult RunCensus(const RunConfig& config);
WorkloadResult RunQs(const RunConfig& config);

/// Quantile of `values` by linear interpolation between order statistics
/// (the same rule as numpy's default); 0 for an empty vector.
double Quantile(std::vector<double> values, double q);

/// Median of the set-up repetitions.
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Readers over a registry snapshot; absent names read as zero.
uint64_t CounterOf(const pso::metrics::Snapshot& snap, const std::string& name);
double GaugeOf(const pso::metrics::Snapshot& snap, const std::string& name);
pso::metrics::Snapshot::HistogramValue HistogramOf(
    const pso::metrics::Snapshot& snap, const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
