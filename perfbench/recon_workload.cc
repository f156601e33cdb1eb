// recon: single-threaded LP decoding of subset-sum answers (Theorem
// 1.1(ii)) through recon::LpDecodeRecorded, in two instance classes that
// are timed and split separately.
//
// The exact class answers exactly (alpha = 0), the primal-degenerate case:
// every residual is zero at the optimum. It always holds one instance at
// each of n = 64 and n = 80, two at n = 48 and a run-length-dependent
// number at n = 32. At the library's seed commit the n = 80 decode stops
// at the pivot limit; that failure is part of what this workload measures.
// The noisy class answers with bounded noise alpha = c * sqrt(n), c in
// {0.25, 1}, at n = 128, which leaves the optimum non-degenerate: a
// degeneracy fix should not move it, while a slower simplex kernel shows
// there.

#include <cmath>
#include <cstdio>
#include <memory>

#include "common/hash.h"
#include "common/rng.h"
#include "perfbench.h"
#include "recon/attacks.h"
#include "recon/oracle.h"
#include "reference.h"

namespace perfbench {
namespace {

using pso::Rng;
using pso::recon::SubsetQuery;

constexpr double kDecodeDeadlineS = 60.0;
// E2's accuracy floor for c = 0.25 (bench_recon_lp).
constexpr double kNoisyAccuracyFloor = 0.93;
constexpr double kResidualRelTol = 1e-6;

struct Shape {
  size_t n;
  double c;        // alpha = c * sqrt(n); 0 = exact answers
  size_t ordinal;  // among the instances of this n and answer kind
};

struct Instance {
  Shape shape;
  std::vector<uint8_t> secret;
  std::vector<SubsetQuery> queries;
  std::vector<double> answers;
};

// The run's instances, exact class first. Every instance is drawn from
// its own stream keyed by (seed, n, answer kind, ordinal), so a longer run
// only adds instances.
std::vector<Shape> Shapes(int seconds) {
  std::vector<Shape> shapes;
  // Mostly n = 32, so the per-decode median is a well-sampled small
  // decode; n = 64 and n = 80 set the tail.
  const size_t small = static_cast<size_t>(std::max(4, 3 * seconds));
  for (size_t i = 0; i < small; ++i) shapes.push_back({32, 0.0, i});
  for (size_t i = 0; i < 2; ++i) shapes.push_back({48, 0.0, i});
  shapes.push_back({64, 0.0, 0});
  shapes.push_back({80, 0.0, 0});
  const size_t noisy = static_cast<size_t>(std::max(2, seconds * 2 / 3));
  for (size_t i = 0; i < noisy; ++i) {
    shapes.push_back({128, i % 2 == 0 ? 0.25 : 1.0, i});
  }
  return shapes;
}

// Secret, m = 5n random subset queries and their answers.
Instance MakeInstance(uint64_t seed, const Shape& shape) {
  const size_t n = shape.n;
  Rng rng = Rng::StreamAt(
      pso::HashCombine(pso::HashCombine(seed, n), shape.c == 0.0 ? 0xE0 : 0xA0),
      shape.ordinal);
  Instance inst{shape, {}, {}, {}};
  inst.secret = pso::recon::RandomBits(n, rng);
  const size_t m = 5 * n;
  inst.queries.assign(m, SubsetQuery(n, 0));
  for (SubsetQuery& q : inst.queries) {
    for (size_t i = 0; i < n; ++i) q[i] = rng.Bernoulli(0.5) ? 1 : 0;
  }
  std::unique_ptr<pso::recon::SubsetSumOracle> oracle;
  if (shape.c == 0.0) {
    oracle = std::make_unique<pso::recon::ExactOracle>(inst.secret);
  } else {
    oracle = std::make_unique<pso::recon::BoundedNoiseOracle>(
        inst.secret, shape.c * std::sqrt(static_cast<double>(n)),
        rng.NextUint64());
  }
  inst.answers.reserve(m);
  for (const SubsetQuery& q : inst.queries) {
    inst.answers.push_back(oracle->Answer(q));
  }
  return inst;
}

const double* ReferenceResidual(uint64_t seed, size_t index) {
  for (const NoisyResidual& ref : kNoisyResiduals) {
    if (ref.seed == seed && ref.index == index) return &ref.residual;
  }
  return nullptr;
}

// Per-class totals of one pass.
struct ClassTotals {
  double decode_s = 0.0;
  uint64_t completed = 0;
  double rows = 0.0;
};

struct Pass {
  double window_s = 0.0;
  uint64_t failed = 0;
  uint64_t completed = 0;
  std::vector<double> op_s;
  ClassTotals exact, noisy;
  /// Registry after the exact class and after the whole pass (it is reset
  /// at the start), so the noisy class reads as the difference.
  pso::metrics::Snapshot after_exact, after_all;
};

// Decodes every instance in the timed window, then checks the outputs.
Pass RunPass(const std::vector<Instance>& instances, uint64_t seed,
             WorkloadResult* r) {
  std::vector<pso::Result<pso::recon::Reconstruction>> decoded;
  decoded.reserve(instances.size());
  Pass pass;
  pso::metrics::Registry::Global().ResetAll();
  const Clock::time_point start = Clock::now();
  for (const Instance& inst : instances) {
    if (inst.shape.c != 0.0 && pass.after_exact.empty()) {
      pass.after_exact = pso::metrics::Registry::Global().TakeSnapshot();
    }
    const Clock::time_point t = Clock::now();
    decoded.push_back(
        pso::recon::LpDecodeRecorded(inst.shape.n, inst.queries, inst.answers));
    pass.op_s.push_back(SecondsSince(t));
  }
  pass.window_s = SecondsSince(start);
  pass.after_all = pso::metrics::Registry::Global().TakeSnapshot();

  for (size_t k = 0; k < instances.size(); ++k) {
    const Instance& inst = instances[k];
    ClassTotals& totals = inst.shape.c == 0.0 ? pass.exact : pass.noisy;
    totals.decode_s += pass.op_s[k];
    totals.rows += static_cast<double>(inst.queries.size());
    const auto& rec = decoded[k];
    const double accuracy =
        rec.ok() ? pso::recon::FractionAgree(rec->estimate, inst.secret) : 0.0;
    std::printf("decode index=%zu n=%zu c=%g seconds=%.3f status=%s "
                "residual=%.17g accuracy=%.4f\n",
                inst.shape.ordinal, inst.shape.n, inst.shape.c, pass.op_s[k],
                rec.ok() ? "OK" : rec.status().ToString().c_str(),
                rec.ok() ? rec->decoder_residual : 0.0, accuracy);
    if (!rec.ok() || pass.op_s[k] > kDecodeDeadlineS) {
      ++pass.failed;
      continue;
    }
    bool good = true;
    const double residual = rec->decoder_residual;
    if (inst.shape.c == 0.0) {
      // Exact answers: the secret fits every answer, so the optimum is 0
      // and rounding recovers the secret.
      if (accuracy != 1.0 || std::fabs(residual) > kResidualRelTol) {
        r->Fail("exact decode n=" + std::to_string(inst.shape.n) + " #" +
                std::to_string(inst.shape.ordinal) +
                " is not a perfect reconstruction");
        good = false;
      }
    } else {
      if (inst.shape.c == 0.25 && accuracy < kNoisyAccuracyFloor) {
        r->Fail("noisy decode #" + std::to_string(inst.shape.ordinal) +
                " is below the 0.93 accuracy floor");
        good = false;
      }
      const double* ref = ReferenceResidual(seed, inst.shape.ordinal);
      if (ref != nullptr &&
          std::fabs(residual - *ref) > kResidualRelTol * std::fabs(*ref)) {
        r->Fail("noisy decode #" + std::to_string(inst.shape.ordinal) +
                " objective differs from the reference");
        good = false;
      }
    }
    if (good) {
      ++pass.completed;
      ++totals.completed;
    } else {
      ++pass.failed;
    }
  }
  return pass;
}

// LP-layer metrics of one class, `name.<cls>`, from the registry at the
// end of the class (`end`) and at its start (`begin`).
void ClassLayers(const char* cls, const ClassTotals& totals,
                 const pso::metrics::Snapshot& begin,
                 const pso::metrics::Snapshot& end,
                 std::map<std::string, double>* layer) {
  auto delta = [&](const char* name) {
    return static_cast<double>(CounterOf(end, name) - CounterOf(begin, name));
  };
  const std::string suffix = std::string(".") + cls;
  const double pivots = delta("lp.pivots");
  const double solve_s =
      HistogramOf(end, "lp.solve").sum() - HistogramOf(begin, "lp.solve").sum();
  (*layer)["lp.pivots" + suffix] = pivots;
  (*layer)["lp.pivots_per_row" + suffix] =
      totals.rows > 0 ? pivots / totals.rows : 0.0;
  (*layer)["lp.us_per_pivot" + suffix] = pivots > 0 ? 1e6 * solve_s / pivots
                                                    : 0.0;
  for (const char* name : {"lp.pivot_work", "lp.refactorizations",
                           "lp.bound_flips", "lp.phase1_iterations",
                           "lp.phase2_iterations"}) {
    (*layer)[name + suffix] = delta(name);
  }
  (*layer)["lp.solve_s" + suffix] = solve_s;
  (*layer)[std::string("recon.") + cls + ".decodes_per_s"] =
      totals.decode_s > 0 ? static_cast<double>(totals.completed) /
                                totals.decode_s
                          : 0.0;
}

}  // namespace

WorkloadResult RunRecon(const RunConfig& config) {
  WorkloadResult r;
  const std::vector<Shape> shapes = Shapes(config.seconds);
  std::vector<Instance> instances;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    instances.clear();
    const Clock::time_point t = Clock::now();
    for (const Shape& shape : shapes) {
      instances.push_back(MakeInstance(config.seed, shape));
    }
    r.setup_s.push_back(SecondsSince(t));
  }

  Pass base = RunPass(instances, config.seed, &r);
  r.attempted = instances.size();
  r.failed = base.failed;
  r.completed = base.completed;
  r.window_s = base.window_s;
  r.op_s = base.op_s;
  r.fingerprint["lp.pivots"] = CounterOf(base.after_all, "lp.pivots");
  r.fingerprint["decodes_ok"] = base.completed;
  r.fingerprint["decodes_failed"] = base.failed;
  if (!config.trace) return r;

  // Traced pass: the same decodes, now split into classes and layers by
  // the library's own counters and the lp.solve histogram.
  Pass traced = RunPass(instances, config.seed, &r);
  auto& layer = r.layer;
  ClassLayers("exact", traced.exact, pso::metrics::Snapshot{},
              traced.after_exact, &layer);
  ClassLayers("noisy", traced.noisy, traced.after_exact, traced.after_all,
              &layer);
  const double decode_s = traced.exact.decode_s + traced.noisy.decode_s;
  const double solve_s = HistogramOf(traced.after_all, "lp.solve").sum();
  layer["recon.decode_s"] = decode_s;
  layer["recon.lp_build_s"] = decode_s - solve_s;
  layer["latency_samples"] = static_cast<double>(traced.op_s.size());
  // Layer self times: lp.solve_s + recon.lp_build_s = recon.decode_s.
  layer["unattributed_share"] = 1.0 - decode_s / traced.window_s;
  layer["trace_overhead_share"] = traced.window_s / base.window_s - 1.0;
  return r;
}

}  // namespace perfbench
