// Targeted tests for the revised simplex, the LP engine: anti-cycling on
// classic degenerate instances, eta-file refactorization on long solves,
// warm starts (identical instance and after appending constraints),
// recovery from singular / mis-shaped warm bases, and the degenerate
// shapes (empty, 1x1, all-slack) that never show up in the random
// differential suites. The dense-tableau oracle (tests/oracles/) serves
// as the reference throughout.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "oracles/oracles.h"
#include "solver/lp.h"
#include "solver/revised_simplex.h"

namespace pso {
namespace {

uint64_t CounterValue(const char* name) {
  return metrics::GetCounter(name).value();
}

// Beale's classic cycling example: the textbook Dantzig rule cycles
// forever on this LP, so reaching the optimum at all exercises the Bland
// fallback that kicks in after a degenerate-pivot streak.
LpProblem BealeCyclingLp() {
  LpProblem lp;
  size_t x1 = lp.AddVariable(0.0, LpProblem::kInfinity, -0.75);
  size_t x2 = lp.AddVariable(0.0, LpProblem::kInfinity, 150.0);
  size_t x3 = lp.AddVariable(0.0, LpProblem::kInfinity, -0.02);
  size_t x4 = lp.AddVariable(0.0, LpProblem::kInfinity, 6.0);
  lp.AddConstraint({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                   Relation::kLessEq, 0.0);
  lp.AddConstraint({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                   Relation::kLessEq, 0.0);
  lp.AddConstraint({{x3, 1.0}}, Relation::kLessEq, 1.0);
  return lp;
}

TEST(RevisedSimplexTest, BealeDegenerateCyclingInstance) {
  LpProblem lp = BealeCyclingLp();
  Result<LpSolution> got = lp.Solve();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_NEAR(got->objective, -0.05, 1e-9);
  // Termination must come from optimality, not the iteration cap.
  EXPECT_LT(got->iterations, 1000u);
}

// An L1-fit LP shaped exactly like the reconstruction decoder: n box
// variables, q equality rows with +u -v residual splits. Long enough to
// cross kRefactorInterval several times.
LpProblem L1FitLp(size_t n, size_t q, uint64_t seed) {
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

TEST(RevisedSimplexTest, LongSolveCrossesRefactorizationInterval) {
  LpProblem lp = L1FitLp(/*n=*/16, /*q=*/96, /*seed=*/71);
  const uint64_t refactors_before = CounterValue("lp.refactorizations");
  Result<LpSolution> sparse = lp.Solve();
  ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
  ASSERT_GT(sparse->iterations, revised_simplex_internal::kRefactorInterval)
      << "instance too easy to exercise refactorization";
  // At least one periodic refactorization beyond the initial one.
  EXPECT_GE(CounterValue("lp.refactorizations") - refactors_before, 2u);

  Result<LpSolution> dense = oracles::SolveDenseTableau(lp.instance(), {});
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();
  EXPECT_NEAR(sparse->objective, dense->objective, 1e-7);
}

TEST(RevisedSimplexTest, WarmRestartOfSolvedInstanceTakesNoPivots) {
  LpProblem lp = L1FitLp(/*n=*/8, /*q=*/24, /*seed=*/5);
  LpBasis basis;
  LpSolveOptions first;
  first.final_basis = &basis;
  Result<LpSolution> cold = lp.Solve(first);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_FALSE(basis.empty());

  const uint64_t warms_before = CounterValue("lp.warm_starts");
  LpSolveOptions second;
  second.warm_start = &basis;
  Result<LpSolution> warm = lp.Solve(second);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(CounterValue("lp.warm_starts") - warms_before, 1u);
  // The optimal basis re-prices as optimal: zero pivots, same vertex (the
  // fresh factorization may clean sub-tolerance residue off the cold
  // path's basic values, so "same point" is up to tolerance here; exact
  // replay determinism is warm-vs-warm, below).
  EXPECT_EQ(warm->iterations, 0u);
  EXPECT_EQ(warm->objective, cold->objective);
  ASSERT_EQ(warm->values.size(), cold->values.size());
  for (size_t i = 0; i < warm->values.size(); ++i) {
    EXPECT_NEAR(warm->values[i], cold->values[i], 1e-9) << "value " << i;
  }

  Result<LpSolution> warm2 = lp.Solve(second);
  ASSERT_TRUE(warm2.ok()) << warm2.status().ToString();
  EXPECT_EQ(warm2->iterations, warm->iterations);
  EXPECT_EQ(warm2->values, warm->values);  // bit-identical replay
}

TEST(RevisedSimplexTest, WarmStartAfterConstraintAppend) {
  const size_t n = 8;
  auto build = [&](size_t q) { return L1FitLp(n, q, /*seed=*/43); };
  LpBasis basis;
  LpSolveOptions first;
  first.final_basis = &basis;
  LpProblem base = build(20);
  Result<LpSolution> base_solve = base.Solve(first);
  ASSERT_TRUE(base_solve.ok()) << base_solve.status().ToString();

  // Same instance grown by four more rows (and their u/v columns): the
  // smaller basis must pad (new rows basic on their logical, new columns
  // at lower bound) and still reach the optimum.
  LpProblem grown = build(24);
  LpSolveOptions warm;
  warm.warm_start = &basis;
  Result<LpSolution> warm_solve = grown.Solve(warm);
  ASSERT_TRUE(warm_solve.ok()) << warm_solve.status().ToString();
  Result<LpSolution> oracle = oracles::SolveDenseTableau(grown.instance(), {});
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_NEAR(warm_solve->objective, oracle->objective, 1e-7);
}

TEST(RevisedSimplexTest, SingularWarmBasisFallsBackToColdStart) {
  // Two identical columns: marking both basic makes the warm basis
  // numerically singular, which the engine must detect and repair (or
  // cold-start) rather than produce garbage.
  LpProblem lp;
  size_t a = lp.AddVariable(0.0, 10.0, -1.0);
  size_t b = lp.AddVariable(0.0, 10.0, -1.0);
  lp.AddConstraint({{a, 1.0}, {b, 1.0}}, Relation::kLessEq, 5.0);
  lp.AddConstraint({{a, 1.0}, {b, 1.0}}, Relation::kLessEq, 7.0);

  LpBasis singular;
  singular.structurals = {LpVarStatus::kBasic, LpVarStatus::kBasic};
  singular.logicals = {LpVarStatus::kAtLower, LpVarStatus::kAtLower};
  LpSolveOptions options;
  options.warm_start = &singular;
  Result<LpSolution> got = lp.Solve(options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_NEAR(got->objective, -5.0, 1e-9);
}

TEST(RevisedSimplexTest, MisshapedWarmBasisIsIgnored) {
  LpProblem lp;
  size_t x = lp.AddVariable(0.0, 1.0, -1.0);
  lp.AddConstraint({{x, 1.0}}, Relation::kLessEq, 0.5);

  LpBasis wrong;  // basic count != row count: unusable as a basis
  wrong.structurals = {LpVarStatus::kBasic};
  wrong.logicals = {LpVarStatus::kBasic};
  LpSolveOptions options;
  options.warm_start = &wrong;
  Result<LpSolution> got = lp.Solve(options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_NEAR(got->objective, -0.5, 1e-9);
}

TEST(RevisedSimplexTest, EmptyProblemSolvesToZero) {
  LpProblem lp;
  for (const oracles::LpEngine& engine :
       {oracles::kDenseTableau, oracles::kRevisedSimplex}) {
    Result<LpSolution> got = engine.solve(lp.instance(), LpSolveOptions{});
    ASSERT_TRUE(got.ok()) << engine.name << ": "
                          << got.status().ToString();
    EXPECT_EQ(got->objective, 0.0) << engine.name;
    EXPECT_TRUE(got->values.empty()) << engine.name;
  }
}

TEST(RevisedSimplexTest, VariablesOnlyProblemRestsAtBestBounds) {
  // No constraints at all: each variable independently sits at whichever
  // bound its cost prefers (upper for negative cost via a bound flip).
  LpProblem lp;
  lp.AddVariable(0.0, 3.0, -2.0);
  lp.AddVariable(-1.0, 4.0, 1.0);
  for (const oracles::LpEngine& engine :
       {oracles::kDenseTableau, oracles::kRevisedSimplex}) {
    Result<LpSolution> got = engine.solve(lp.instance(), LpSolveOptions{});
    ASSERT_TRUE(got.ok()) << engine.name << ": "
                          << got.status().ToString();
    EXPECT_NEAR(got->objective, -7.0, 1e-9) << engine.name;
    EXPECT_NEAR(got->values[0], 3.0, 1e-9) << engine.name;
    EXPECT_NEAR(got->values[1], -1.0, 1e-9) << engine.name;
  }
}

TEST(RevisedSimplexTest, OneByOneProblem) {
  LpProblem lp;
  size_t x = lp.AddVariable(0.0, LpProblem::kInfinity, -1.0);
  lp.AddConstraint({{x, 2.0}}, Relation::kLessEq, 6.0);
  for (const oracles::LpEngine& engine :
       {oracles::kDenseTableau, oracles::kRevisedSimplex}) {
    Result<LpSolution> got = engine.solve(lp.instance(), LpSolveOptions{});
    ASSERT_TRUE(got.ok()) << engine.name << ": "
                          << got.status().ToString();
    EXPECT_NEAR(got->objective, -3.0, 1e-9) << engine.name;
    EXPECT_NEAR(got->values[0], 3.0, 1e-9) << engine.name;
  }
}

TEST(RevisedSimplexTest, AllSlackOptimumTakesNoPivots) {
  // Costs are all nonnegative and every constraint is satisfied at the
  // lower bounds, so the initial all-logical basis is already optimal.
  LpProblem lp;
  size_t x = lp.AddVariable(0.0, 5.0, 1.0);
  size_t y = lp.AddVariable(0.0, 5.0, 2.0);
  lp.AddConstraint({{x, 1.0}, {y, 1.0}}, Relation::kLessEq, 8.0);
  lp.AddConstraint({{x, 1.0}}, Relation::kLessEq, 4.0);
  Result<LpSolution> got = lp.Solve();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->iterations, 0u);
  EXPECT_NEAR(got->objective, 0.0, 1e-12);
}

TEST(RevisedSimplexTest, UnboundedAndInfeasibleStatuses) {
  LpProblem unbounded;
  size_t u = unbounded.AddVariable(0.0, LpProblem::kInfinity, -1.0);
  unbounded.AddConstraint({{u, -1.0}}, Relation::kLessEq, 1.0);
  Result<LpSolution> ray = unbounded.Solve();
  ASSERT_FALSE(ray.ok());
  EXPECT_EQ(ray.status().code(), StatusCode::kUnbounded);

  LpProblem infeasible;
  size_t x = infeasible.AddVariable(0.0, 1.0, 0.0);
  infeasible.AddConstraint({{x, 1.0}}, Relation::kGreaterEq, 2.0);
  Result<LpSolution> none = infeasible.Solve();
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kInfeasible);
}

}  // namespace
}  // namespace pso
