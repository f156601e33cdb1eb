// Targeted tests for the revised simplex, the LP engine: anti-cycling on
// classic degenerate instances, the bound perturbation and clean-up that
// answer a degenerate stall, the pivot budget, the ratio test's near-tie
// rule, eta-file refactorization on long solves, warm starts (identical
// instance and after appending constraints), recovery from singular /
// mis-shaped warm bases, and the degenerate
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
// forever on this LP. Phase 2 answers the degenerate streak with one
// bound perturbation; reaching the optimum at all exercises that
// perturbation and the unperturbed clean-up after it.
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
  const uint64_t perturbations_before = CounterValue("lp.perturbations");
  Result<LpSolution> got = lp.Solve();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_NEAR(got->objective, -0.05, 1e-9);
  EXPECT_EQ(CounterValue("lp.perturbations") - perturbations_before, 1u);
  // Termination must come from optimality, not the pivot budget.
  EXPECT_LT(got->iterations, 1000u);
}

// An L1-fit LP shaped exactly like the reconstruction decoder: n box
// variables, q equality rows <s_j, x> + u_j - v_j = a_j over random
// subsets s_j. By default a_j is random, so the fit is inconsistent and
// the optimum non-degenerate; long enough to cross kRefactorInterval
// several times. With `exact`, a_j = <s_j, secret> for a random secret:
// the optimum makes every residual zero, the primal-degenerate vertex the
// bound perturbation exists for.
LpProblem L1FitLp(size_t n, size_t q, uint64_t seed, bool exact = false) {
  Rng rng(seed);
  std::vector<int> secret(exact ? n : 0);
  for (int& bit : secret) bit = rng.Bernoulli(0.5) ? 1 : 0;
  LpProblem lp;
  std::vector<size_t> x(n);
  for (size_t i = 0; i < n; ++i) x[i] = lp.AddVariable(0.0, 1.0, 0.0);
  for (size_t j = 0; j < q; ++j) {
    size_t u = lp.AddVariable(0.0, LpProblem::kInfinity, 1.0);
    size_t v = lp.AddVariable(0.0, LpProblem::kInfinity, 1.0);
    std::vector<std::pair<size_t, double>> row;
    double answer = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (!rng.Bernoulli(0.5)) continue;
      row.emplace_back(x[i], 1.0);
      if (exact) answer += secret[i];
    }
    row.emplace_back(u, 1.0);
    row.emplace_back(v, -1.0);
    if (!exact) {
      answer = static_cast<double>(rng.UniformInt(0, (int64_t)n / 2));
    }
    lp.AddConstraint(row, Relation::kEqual, answer);
  }
  return lp;
}

TEST(RevisedSimplexTest, DegenerateStallPerturbsOnceThenCleansUp) {
  const size_t q = 160;
  LpProblem lp = L1FitLp(/*n=*/32, q, /*seed=*/9, /*exact=*/true);
  const uint64_t perturbations = CounterValue("lp.perturbations");
  const uint64_t pivots = CounterValue("lp.pivots");
  const uint64_t phase1 = CounterValue("lp.phase1_iterations");
  const uint64_t phase2 = CounterValue("lp.phase2_iterations");
  Result<LpSolution> got = lp.Solve();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(CounterValue("lp.perturbations") - perturbations, 1u);
  // The clean-up restores the original bounds: the answer is the exact
  // problem's optimum (0: the secret fits every answer), inside the exact
  // problem's box. proptest_solver_test checks the path against the
  // dense oracle on smaller instances.
  EXPECT_LE(got->objective, 1e-6);
  EXPECT_GE(got->objective, 0.0);
  for (size_t i = 0; i < got->values.size(); ++i) {
    EXPECT_GE(got->values[i], lp.instance().variables[i].lower) << i;
    EXPECT_LE(got->values[i], lp.instance().variables[i].upper) << i;
  }
  EXPECT_LE(got->iterations, 8 * q);
  // Perturbed pass and clean-up book their pivots to the phase that
  // made them, and the phases add up to the total.
  const uint64_t spent = CounterValue("lp.pivots") - pivots;
  EXPECT_EQ(spent, got->iterations);
  EXPECT_EQ(CounterValue("lp.phase1_iterations") - phase1 +
                CounterValue("lp.phase2_iterations") - phase2,
            spent);

  // The perturbation is a fixed function of the column index: a second
  // solve replays the first bit for bit.
  Result<LpSolution> again = lp.Solve();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->iterations, got->iterations);
  EXPECT_EQ(again->values, got->values);
}

TEST(RevisedSimplexTest, PivotBudgetOverrunIsResourceExhausted) {
  // Running out of pivots is a budget outcome, never kInternal, on the
  // engine and its oracle alike; the pivots spent are all counted, and
  // the two phases add up to them.
  LpProblem lp = L1FitLp(/*n=*/16, /*q=*/80, /*seed=*/3, /*exact=*/true);
  for (const oracles::LpEngine& engine :
       {oracles::kDenseTableau, oracles::kRevisedSimplex}) {
    const uint64_t pivots = CounterValue("lp.pivots");
    const uint64_t phase1 = CounterValue("lp.phase1_iterations");
    const uint64_t phase2 = CounterValue("lp.phase2_iterations");
    LpSolveOptions capped;
    capped.max_pivots = 10;
    Result<LpSolution> got = engine.solve(lp.instance(), capped);
    ASSERT_FALSE(got.ok()) << engine.name;
    EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted)
        << engine.name << ": " << got.status().ToString();
    EXPECT_EQ(CounterValue("lp.pivots") - pivots, 10u) << engine.name;
    EXPECT_EQ(CounterValue("lp.phase1_iterations") - phase1 +
                  CounterValue("lp.phase2_iterations") - phase2,
              10u)
        << engine.name;

    // The default budget is ample for the same instance.
    Result<LpSolution> full = engine.solve(lp.instance(), LpSolveOptions{});
    ASSERT_TRUE(full.ok()) << engine.name << ": " << full.status().ToString();
    EXPECT_NEAR(full->objective, 0.0, 1e-6) << engine.name;
    EXPECT_GT(full->iterations, 10u) << engine.name;
  }
}

TEST(RevisedSimplexTest, BoundFlipsDoNotSpendThePivotBudget) {
  // Both entering columns reach their own upper bound before the slack
  // row blocks, so the optimum takes bound flips only, and a zero pivot
  // budget still solves it.
  LpProblem lp;
  size_t x = lp.AddVariable(0.0, 1.0, -1.0);
  size_t y = lp.AddVariable(0.0, 2.0, -3.0);
  lp.AddConstraint({{x, 1.0}, {y, 1.0}}, Relation::kLessEq, 10.0);
  const uint64_t flips = CounterValue("lp.bound_flips");
  LpSolveOptions no_pivots;
  no_pivots.max_pivots = 0;
  Result<LpSolution> got = lp.Solve(no_pivots);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_NEAR(got->objective, -7.0, 1e-9);
  EXPECT_EQ(got->iterations, 0u);
  EXPECT_EQ(CounterValue("lp.bound_flips") - flips, 2u);
}

TEST(RevisedSimplexTest, RatioTestNearTieNeverOvershootsASteepRow) {
  // Entering x blocks at t = 5e-10 in row 0 and at t = 0 in row 1, whose
  // coefficient 1e9 magnifies any overshoot a billionfold. Row 0's
  // logical may leave (a near-tie, smaller basic index), but the step
  // must be the smallest ratio: a step of 5e-10 leaves 1e9 x = 0.5 > 0.
  LpProblem lp;
  size_t x = lp.AddVariable(0.0, 10.0, -1.0);
  lp.AddConstraint({{x, 1.0}}, Relation::kLessEq, 5e-10);
  lp.AddConstraint({{x, 1e9}}, Relation::kLessEq, 0.0);
  Result<LpSolution> got = lp.Solve();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_LE(1e9 * got->values[x], 1e-6);
  EXPECT_NEAR(got->objective, 0.0, 1e-12);
}

TEST(RevisedSimplexTest, LongSolveCrossesRefactorizationInterval) {
  LpProblem lp = L1FitLp(/*n=*/16, /*q=*/96, /*seed=*/71);
  const uint64_t refactors_before = CounterValue("lp.refactorizations");
  const uint64_t perturbations_before = CounterValue("lp.perturbations");
  Result<LpSolution> sparse = lp.Solve();
  ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
  // Inconsistent answers leave the optimum non-degenerate: no stall, so
  // no perturbation and exactly the plain Dantzig path.
  EXPECT_EQ(CounterValue("lp.perturbations") - perturbations_before, 0u);
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
