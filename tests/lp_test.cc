// Tests for the simplex LP solvers. Every scenario runs against the
// revised simplex and its dense-tableau oracle on the same LpProblem, so
// the suite doubles as their shared conformance contract.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "oracles/oracles.h"
#include "solver/lp.h"

namespace pso {
namespace {

// Fixture parameterized on the solver; Solve() checks the builder status
// first, as LpProblem::Solve does.
class LpEngineTest : public ::testing::TestWithParam<oracles::LpEngine> {
 protected:
  Result<LpSolution> Solve(const LpProblem& lp) {
    if (!lp.build_status().ok()) return lp.build_status();
    return GetParam().solve(lp.instance(), LpSolveOptions{});
  }
};

TEST_P(LpEngineTest, SimpleTwoVariableMaximization) {
  // max x + y  s.t.  x + 2y <= 4,  3x + y <= 6,  x,y >= 0.
  // As minimization of -(x+y); optimum at (8/5, 6/5), value 14/5.
  LpProblem lp;
  size_t x = lp.AddVariable(0, LpProblem::kInfinity, -1.0);
  size_t y = lp.AddVariable(0, LpProblem::kInfinity, -1.0);
  lp.AddConstraint({{x, 1.0}, {y, 2.0}}, Relation::kLessEq, 4.0);
  lp.AddConstraint({{x, 3.0}, {y, 1.0}}, Relation::kLessEq, 6.0);
  auto sol = Solve(lp);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_NEAR(sol->objective, -14.0 / 5.0, 1e-7);
  EXPECT_NEAR(sol->values[x], 8.0 / 5.0, 1e-7);
  EXPECT_NEAR(sol->values[y], 6.0 / 5.0, 1e-7);
}

TEST_P(LpEngineTest, EqualityConstraint) {
  // min x + y  s.t.  x + y = 3, x <= 2, y <= 2.
  LpProblem lp;
  size_t x = lp.AddVariable(0, 2.0, 1.0);
  size_t y = lp.AddVariable(0, 2.0, 1.0);
  lp.AddConstraint({{x, 1.0}, {y, 1.0}}, Relation::kEqual, 3.0);
  auto sol = Solve(lp);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_NEAR(sol->objective, 3.0, 1e-7);
  EXPECT_NEAR(sol->values[x] + sol->values[y], 3.0, 1e-7);
}

TEST_P(LpEngineTest, GreaterEqualConstraint) {
  // min 2x + y  s.t.  x + y >= 4, x >= 0, y >= 0. Optimum (0,4) value 4.
  LpProblem lp;
  size_t x = lp.AddVariable(0, LpProblem::kInfinity, 2.0);
  size_t y = lp.AddVariable(0, LpProblem::kInfinity, 1.0);
  lp.AddConstraint({{x, 1.0}, {y, 1.0}}, Relation::kGreaterEq, 4.0);
  auto sol = Solve(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective, 4.0, 1e-7);
  EXPECT_NEAR(sol->values[y], 4.0, 1e-7);
}

TEST_P(LpEngineTest, NonZeroLowerBounds) {
  // min x  s.t.  x >= 5 via bounds. Optimum 5.
  LpProblem lp;
  size_t x = lp.AddVariable(5.0, 10.0, 1.0);
  auto sol = Solve(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->values[x], 5.0, 1e-9);
}

TEST_P(LpEngineTest, NegativeLowerBounds) {
  // min x  s.t.  x in [-3, 3]. Optimum -3.
  LpProblem lp;
  size_t x = lp.AddVariable(-3.0, 3.0, 1.0);
  auto sol = Solve(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->values[x], -3.0, 1e-9);
}

TEST_P(LpEngineTest, InfeasibleDetected) {
  LpProblem lp;
  size_t x = lp.AddVariable(0, 1.0, 0.0);
  lp.AddConstraint({{x, 1.0}}, Relation::kGreaterEq, 2.0);
  auto sol = Solve(lp);
  ASSERT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kInfeasible);
}

TEST_P(LpEngineTest, ContradictoryEqualitiesInfeasible) {
  LpProblem lp;
  size_t x = lp.AddVariable(0, LpProblem::kInfinity, 0.0);
  lp.AddConstraint({{x, 1.0}}, Relation::kEqual, 1.0);
  lp.AddConstraint({{x, 1.0}}, Relation::kEqual, 2.0);
  EXPECT_FALSE(Solve(lp).ok());
}

TEST_P(LpEngineTest, UnboundedDetected) {
  // min -x with x unbounded above.
  LpProblem lp;
  lp.AddVariable(0, LpProblem::kInfinity, -1.0);
  auto sol = Solve(lp);
  ASSERT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kUnbounded);
}

TEST_P(LpEngineTest, UnboundedWithConstraintsIsNotInternal) {
  // min -x - y  s.t.  x - y <= 1, x,y >= 0: the ray (t, t) improves the
  // objective forever. Must classify as kUnbounded — a model property —
  // never as kInternal (a solver failure).
  LpProblem lp;
  size_t x = lp.AddVariable(0, LpProblem::kInfinity, -1.0);
  size_t y = lp.AddVariable(0, LpProblem::kInfinity, -1.0);
  lp.AddConstraint({{x, 1.0}, {y, -1.0}}, Relation::kLessEq, 1.0);
  auto sol = Solve(lp);
  ASSERT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kUnbounded);
  EXPECT_NE(sol.status().code(), StatusCode::kInternal);
}

TEST_P(LpEngineTest, BoundingTheRayRestoresOptimality) {
  // The same model with an upper bound on each variable is bounded again:
  // regression pair for the unbounded classifier.
  LpProblem lp;
  size_t x = lp.AddVariable(0, 10.0, -1.0);
  size_t y = lp.AddVariable(0, 10.0, -1.0);
  lp.AddConstraint({{x, 1.0}, {y, -1.0}}, Relation::kLessEq, 1.0);
  auto sol = Solve(lp);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_NEAR(sol->objective, -20.0, 1e-7);
}

TEST_P(LpEngineTest, RedundantConstraintsHandled) {
  LpProblem lp;
  size_t x = lp.AddVariable(0, LpProblem::kInfinity, 1.0);
  lp.AddConstraint({{x, 1.0}}, Relation::kEqual, 2.0);
  lp.AddConstraint({{x, 2.0}}, Relation::kEqual, 4.0);  // same constraint
  auto sol = Solve(lp);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_NEAR(sol->values[x], 2.0, 1e-7);
}

TEST_P(LpEngineTest, DegenerateVertexTerminates) {
  // Multiple constraints meeting at the optimum (degeneracy stress).
  LpProblem lp;
  size_t x = lp.AddVariable(0, LpProblem::kInfinity, -1.0);
  size_t y = lp.AddVariable(0, LpProblem::kInfinity, -1.0);
  lp.AddConstraint({{x, 1.0}}, Relation::kLessEq, 1.0);
  lp.AddConstraint({{y, 1.0}}, Relation::kLessEq, 1.0);
  lp.AddConstraint({{x, 1.0}, {y, 1.0}}, Relation::kLessEq, 2.0);
  lp.AddConstraint({{x, 1.0}, {y, 2.0}}, Relation::kLessEq, 3.0);
  auto sol = Solve(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective, -2.0, 1e-7);
}

TEST_P(LpEngineTest, L1FitRecoversPoint) {
  // min |x - 3| + |y + 1| encoded with slack variables.
  LpProblem lp;
  size_t x = lp.AddVariable(-10, 10, 0.0);
  size_t y = lp.AddVariable(-10, 10, 0.0);
  size_t tx = lp.AddVariable(0, LpProblem::kInfinity, 1.0);
  size_t ty = lp.AddVariable(0, LpProblem::kInfinity, 1.0);
  lp.AddConstraint({{x, 1.0}, {tx, -1.0}}, Relation::kLessEq, 3.0);
  lp.AddConstraint({{x, 1.0}, {tx, 1.0}}, Relation::kGreaterEq, 3.0);
  lp.AddConstraint({{y, 1.0}, {ty, -1.0}}, Relation::kLessEq, -1.0);
  lp.AddConstraint({{y, 1.0}, {ty, 1.0}}, Relation::kGreaterEq, -1.0);
  auto sol = Solve(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective, 0.0, 1e-7);
  EXPECT_NEAR(sol->values[x], 3.0, 1e-7);
  EXPECT_NEAR(sol->values[y], -1.0, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Engines, LpEngineTest,
                         ::testing::Values(oracles::kDenseTableau,
                                           oracles::kRevisedSimplex),
                         [](const auto& info) { return info.param.name; });

// Property sweep: random feasible systems must solve and satisfy all
// constraints at the reported solution — on both solvers.
class LpRandomTest
    : public ::testing::TestWithParam<std::tuple<int, oracles::LpEngine>> {};

TEST_P(LpRandomTest, SolutionSatisfiesConstraints) {
  const auto& [seed, engine] = GetParam();
  Rng rng(1000 + seed);
  const size_t n = 6;
  const size_t m = 8;
  LpProblem lp;
  std::vector<size_t> vars;
  for (size_t i = 0; i < n; ++i) {
    vars.push_back(lp.AddVariable(0.0, 5.0, rng.UniformDouble()));
  }
  // Constraints built around a known feasible point x* in [0,1]^n.
  std::vector<double> x_star(n);
  for (auto& v : x_star) v = rng.UniformDouble();
  struct RowSpec {
    std::vector<std::pair<size_t, double>> coeffs;
    Relation rel;
    double rhs;
  };
  std::vector<RowSpec> rows;
  for (size_t j = 0; j < m; ++j) {
    RowSpec row;
    double lhs_at_star = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double c = rng.UniformDouble() * 2.0 - 1.0;
      row.coeffs.emplace_back(vars[i], c);
      lhs_at_star += c * x_star[i];
    }
    row.rel = Relation::kLessEq;
    row.rhs = lhs_at_star + rng.UniformDouble();  // slack keeps x* feasible
    lp.AddConstraint(row.coeffs, row.rel, row.rhs);
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE(lp.build_status().ok());
  auto sol = engine.solve(lp.instance(), LpSolveOptions{});
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  for (const auto& row : rows) {
    double lhs = 0.0;
    for (const auto& [idx, c] : row.coeffs) lhs += c * sol->values[idx];
    EXPECT_LE(lhs, row.rhs + 1e-6);
  }
  for (size_t i = 0; i < n; ++i) {
    EXPECT_GE(sol->values[i], -1e-9);
    EXPECT_LE(sol->values[i], 5.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, LpRandomTest,
    ::testing::Combine(::testing::Range(0, 10),
                       ::testing::Values(oracles::kDenseTableau,
                                         oracles::kRevisedSimplex)),
    [](const auto& info) {
      return std::string(std::get<1>(info.param).name) + "_" +
             std::to_string(std::get<0>(info.param));
    });

}  // namespace
}  // namespace pso
