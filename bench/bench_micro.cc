// Microbenchmarks (google-benchmark) for the performance-critical
// primitives: sampling, predicate evaluation, anonymization, the solvers,
// and one full PSO game trial. These are throughput numbers, not paper
// claims — they document what experiment scales the library sustains.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "data/generators.h"
#include "kanon/mondrian.h"
#include "pso/adversaries.h"
#include "pso/composition_attack.h"
#include "pso/game.h"
#include "pso/mechanisms.h"
#include "recon/attacks.h"
#include "solver/lp.h"

namespace pso {
namespace {

void BM_SampleGicRecord(benchmark::State& state) {
  Universe u = MakeGicMedicalUniverse(100);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(u.distribution.Sample(rng));
  }
}
BENCHMARK(BM_SampleGicRecord);

void BM_HashPredicateEval(benchmark::State& state) {
  Universe u = MakeGicMedicalUniverse(100);
  Rng rng(2);
  UniversalHash h(rng, 1000);
  auto p = MakeHashPredicate(u.schema, h, 0);
  Record r = u.distribution.Sample(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p->Eval(r));
  }
}
BENCHMARK(BM_HashPredicateEval);

void BM_MondrianAnonymize(benchmark::State& state) {
  Universe u = MakeGicMedicalUniverse(100);
  Rng rng(3);
  Dataset data =
      u.distribution.SampleDataset(static_cast<size_t>(state.range(0)), rng);
  kanon::HierarchySet hs = kanon::HierarchySet::Defaults(u.schema);
  kanon::MondrianOptions opts;
  opts.k = 5;
  for (size_t a = 0; a < u.schema.NumAttributes(); ++a) {
    opts.qi_attrs.push_back(a);
  }
  for (auto _ : state) {
    auto result = kanon::MondrianAnonymize(data, hs, opts);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MondrianAnonymize)->Arg(200)->Arg(1000);

void BM_LpDecode(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(4);
  auto secret = recon::RandomBits(n, rng);
  for (auto _ : state) {
    recon::ExactOracle oracle(secret);
    auto r = recon::LpReconstruct(oracle, 4 * n, rng);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_LpDecode)->Arg(24)->Arg(48);

// Decoder-shaped L1-fit LP (n box variables, 5n equality rows with u/v
// residual splits) built once and solved per iteration.
LpProblem BuildL1FitLp(size_t n, uint64_t seed) {
  const size_t q = 5 * n;
  Rng rng(seed);
  LpProblem lp;
  std::vector<size_t> x(n);
  for (size_t i = 0; i < n; ++i) x[i] = lp.AddVariable(0.0, 1.0, 0.0);
  for (size_t j = 0; j < q; ++j) {
    size_t u = lp.AddVariable(0.0, LpProblem::kInfinity, 1.0);
    size_t v = lp.AddVariable(0.0, LpProblem::kInfinity, 1.0);
    std::vector<std::pair<size_t, double>> row;
    for (size_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.5)) row.emplace_back(x[i], 1.0);
    }
    row.emplace_back(u, 1.0);
    row.emplace_back(v, -1.0);
    lp.AddConstraint(row, Relation::kEqual,
                     static_cast<double>(rng.UniformInt(0, (int64_t)n / 2)));
  }
  return lp;
}

// The same LP solved cold.
void BM_LpSolveCold(benchmark::State& state) {
  LpProblem lp = BuildL1FitLp(static_cast<size_t>(state.range(0)), 6);
  for (auto _ : state) {
    auto sol = lp.Solve();
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_LpSolveCold)->Arg(24)->Arg(48);

// Warm restart of an already-optimal basis: the floor of a warm-started
// re-solve (factorize + price, zero pivots).
void BM_LpSolveWarm(benchmark::State& state) {
  LpProblem lp = BuildL1FitLp(static_cast<size_t>(state.range(0)), 6);
  LpBasis basis;
  LpSolveOptions seed_options;
  seed_options.final_basis = &basis;
  auto seed_solve = lp.Solve(seed_options);
  benchmark::DoNotOptimize(seed_solve);
  LpSolveOptions warm;
  warm.warm_start = &basis;
  for (auto _ : state) {
    auto sol = lp.Solve(warm);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_LpSolveWarm)->Arg(24)->Arg(48);

void BM_AdaptiveCountAttack(benchmark::State& state) {
  Universe u = MakeGicMedicalUniverse(100);
  Rng rng(5);
  Dataset x = u.distribution.SampleDataset(500, rng);
  for (auto _ : state) {
    auto attack = AdaptiveCountAttack(x, 1e-4, 200, rng);
    benchmark::DoNotOptimize(attack);
  }
}
BENCHMARK(BM_AdaptiveCountAttack);

void BM_PsoGameTrialKAnon(benchmark::State& state) {
  Universe u = MakeGicMedicalUniverse(100);
  auto mech = MakeKAnonymityMechanism(
      KAnonAlgorithm::kMondrian, 5, kanon::HierarchySet::Defaults(u.schema),
      {});
  auto adv = MakeKAnonMinimalityAdversary();
  PsoGameOptions opts;
  opts.trials = 1;
  opts.weight_pool = 20000;
  for (auto _ : state) {
    // TimedIteration feeds the bench.main_loop histogram so bench_micro's
    // JSON report carries tail latencies like the shape-check harnesses.
    bench::TimedIteration([&] {
      PsoGame game(u.distribution, 300, opts);
      benchmark::DoNotOptimize(game.Run(*mech, *adv));
      return 0;
    });
  }
}
BENCHMARK(BM_PsoGameTrialKAnon);

}  // namespace
}  // namespace pso

// Custom main instead of BENCHMARK_MAIN(): strips the repo-standard
// flags (--json/--trace/--log-level; google-benchmark would reject
// them), runs the registered benchmarks, then emits the same
// BENCH_*.json document the shape-check harnesses write — no shape
// checks here, but the counters section still records what the measured
// primitives executed (LP pivots etc.).
int main(int argc, char** argv) {
  pso::bench::BenchContext ctx =
      pso::bench::MakeBenchContext("bench_micro", argc, argv);
  ctx.threads = 1;  // microbenchmarks run serially
  std::vector<char*> kept;
  kept.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json" || arg == "--trace" || arg == "--log-level" ||
        arg == "--solver-watchdog-ms") {
      if (i + 1 < argc) ++i;  // skip the path operand
      continue;
    }
    if (arg.rfind("--json=", 0) == 0 || arg.rfind("--trace=", 0) == 0 ||
        arg.rfind("--log-level=", 0) == 0 ||
        arg.rfind("--solver-watchdog-ms=", 0) == 0) {
      continue;
    }
    kept.push_back(argv[i]);
  }
  int kept_argc = static_cast<int>(kept.size());
  benchmark::Initialize(&kept_argc, kept.data());
  if (benchmark::ReportUnrecognizedArguments(kept_argc, kept.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  pso::bench::ShapeChecks no_checks;
  return pso::bench::FinishBench(ctx, "micro", no_checks);
}
