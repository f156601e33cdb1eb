// The perfbench binary: perfbench --workload <name> --seed <n> --seconds <s>
// --trace <0|1>. Prints diagnostic lines, then one JSON object as the
// last line of stdout (see NOTES.md for every metric's definition).

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

uint64_t CounterOf(const pso::metrics::Snapshot& snap,
                   const std::string& name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

double GaugeOf(const pso::metrics::Snapshot& snap, const std::string& name) {
  auto it = snap.gauges.find(name);
  return it == snap.gauges.end() ? 0.0 : it->second;
}

pso::metrics::Snapshot::HistogramValue HistogramOf(
    const pso::metrics::Snapshot& snap, const std::string& name) {
  auto it = snap.histograms.find(name);
  return it == snap.histograms.end()
             ? pso::metrics::Snapshot::HistogramValue{}
             : it->second;
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Printed on every workload with --trace 0; each is defined for every
// workload and is never zero (NOTES.md gives the per-workload meaning).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MiB"},
    {"ok_share", "ratio"},     {"ops_per_s", "1/s"},
    {"latency_ms_p50", "ms"},  {"latency_ms_p99", "ms"},
};

// Printed on every workload with --trace 1; a layer a workload does not
// exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"lp.pivots.exact", "count"},
    {"lp.pivots_per_row.exact", "count"},
    {"lp.us_per_pivot.exact", "us"},
    {"lp.pivot_work.exact", "count"},
    {"lp.refactorizations.exact", "count"},
    {"lp.bound_flips.exact", "count"},
    {"lp.phase1_iterations.exact", "count"},
    {"lp.phase2_iterations.exact", "count"},
    {"lp.solve_s.exact", "s"},
    {"recon.exact.decodes_per_s", "1/s"},
    {"lp.pivots.noisy", "count"},
    {"lp.pivots_per_row.noisy", "count"},
    {"lp.us_per_pivot.noisy", "us"},
    {"lp.pivot_work.noisy", "count"},
    {"lp.refactorizations.noisy", "count"},
    {"lp.bound_flips.noisy", "count"},
    {"lp.phase1_iterations.noisy", "count"},
    {"lp.phase2_iterations.noisy", "count"},
    {"lp.solve_s.noisy", "s"},
    {"recon.noisy.decodes_per_s", "1/s"},
    {"recon.decode_s", "s"},
    {"recon.lp_build_s", "s"},
    {"census.csp_s", "s"},
    {"census.reid_s", "s"},
    {"census.sat_s", "s"},
    {"census.blocks_unique_share", "ratio"},
    {"census.blocks_exhausted", "count"},
    {"census.block_ms_p50", "ms"},
    {"census.block_ms_p95", "ms"},
    {"sat.decisions", "count"},
    {"sat.conflicts", "count"},
    {"sat.propagations", "count"},
    {"sat.learned_clauses", "count"},
    {"pool.imbalance", "count"},
    {"parallel.efficiency", "ratio"},
    {"wire.format_query_ns", "ns"},
    {"wire.parse_query_ns", "ns"},
    {"wire.format_answer_ns", "ns"},
    {"wire.parse_answer_ns", "ns"},
    {"service.answer_ns_p50", "ns"},
    {"service.inproc_batch_us_p50", "us"},
    {"dp.charge_ns", "ns"},
    {"service.refused_share", "ratio"},
    {"qs.transport_us_p50", "us"},
    {"qs.rtt_us_p999", "us"},
    {"latency_samples", "count"},
    {"unattributed_share", "ratio"},
    {"trace_overhead_share", "ratio"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<recon|census|qs> --seed <n> --seconds "
               "<1..600> --trace <0|1>\n",
               why);
  std::exit(2);
}

bool ParseUint(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0' || *text == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) Usage("flag without a value");
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    uint64_t v = 0;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &v)) Usage("--seed must be a whole number");
      config.seed = v;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &v) || v < 1 || v > 600) {
        Usage("--seconds must be in 1..600");
      }
      config.seconds = static_cast<int>(v);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!ParseUint(value, &v) || v > 1) Usage("--trace must be 0 or 1");
      config.trace = v == 1;
      have_trace = true;
    } else {
      Usage("unknown flag");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are all required");
  }
  return config;
}

// Peak resident set of this process image. getrusage's ru_maxrss would
// also count the image that exec'd it (the Python launcher), so read the
// kernel's per-image high-water mark instead.
double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

void AppendMetric(std::string* json, bool* first, const char* name,
                  double value, const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                *first ? "" : ", ", name, std::isfinite(value) ? value : 0.0,
                unit);
  *first = false;
  *json += buf;
}

int Main(int argc, char** argv) {
  const RunConfig config = ParseArgs(argc, argv);
  WorkloadResult r;
  if (config.workload == "recon") {
    r = RunRecon(config);
  } else if (config.workload == "census") {
    r = RunCensus(config);
  } else if (config.workload == "qs") {
    r = RunQs(config);
  } else {
    Usage("unknown workload");
  }
  if (r.attempted == 0) r.Fail("no operation was attempted");

  std::printf("fingerprint workload=%s seed=%llu seconds=%d",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds);
  for (const auto& [name, value] : r.fingerprint) {
    std::printf(" %s=%llu", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  std::printf("\n");
  for (const std::string& p : r.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }

  std::string metrics;
  bool first = true;
  if (config.trace) {
    for (const MetricSpec& m : kPerLayer) {
      auto it = r.layer.find(m.name);
      AppendMetric(&metrics, &first, m.name,
                   it == r.layer.end() ? 0.0 : it->second, m.unit);
    }
  } else {
    const double attempted = static_cast<double>(r.attempted);
    const double values[] = {
        Median(r.setup_s),
        PeakRssMiB(),
        attempted > 0 ? (attempted - static_cast<double>(r.failed)) / attempted
                      : 0.0,
        r.window_s > 0 ? static_cast<double>(r.completed) / r.window_s : 0.0,
        1e3 * Quantile(r.op_s, 0.50),
        1e3 * Quantile(r.op_s, 0.99),
    };
    static_assert(std::size(values) == std::size(kEndToEnd));
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      AppendMetric(&metrics, &first, kEndToEnd[i].name, values[i],
                   kEndToEnd[i].unit);
    }
    std::printf("window_s=%.6f completed=%llu latency_samples=%zu\n",
                r.window_s, static_cast<unsigned long long>(r.completed),
                r.op_s.size());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
