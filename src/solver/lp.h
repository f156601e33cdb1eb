// LP problem builder and solve entry point.
//
// The paper's reproduction band calls for "CBC/Gurobi or SAT solvers"; none
// are available offline, so libpso ships its own. LpProblem is the validated
// builder for the bounded-variable linear programs produced by LP-decoding
// reconstruction (Theorem 1.1(ii), Dwork–McSherry–Talwar LP decoding), and
// Solve() runs the one LP engine: the sparse revised simplex with a
// factorized basis (revised_simplex.h).
//
// Model: minimize c^T x subject to per-constraint relations and variable
// bounds (lower finite, upper finite or +inf).

#ifndef PSO_SOLVER_LP_H_
#define PSO_SOLVER_LP_H_

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "common/result.h"

namespace pso {

class LpProblem;

/// Relation of a linear constraint.
enum class Relation { kLessEq, kGreaterEq, kEqual };

/// Outcome of an LP solve.
struct LpSolution {
  std::vector<double> values;  ///< Optimal variable assignment.
  double objective = 0.0;      ///< Optimal objective value.
  size_t iterations = 0;       ///< Simplex pivots performed.
  /// One dual per constraint, y = B^-T c_B at the optimal basis: the
  /// objective's rate of change per unit of that row's rhs. This is a
  /// minimizer, so a kLessEq row's dual is <= 0 and a kGreaterEq row's
  /// is >= 0.
  std::vector<double> row_duals;
};

/// A plain-data LP instance: the unit the solver consumes and the lp_io
/// codec round-trips. Build one through LpProblem (which validates) or
/// DecodeLpInstance (which validates harder).
struct LpInstance {
  struct Variable {
    double lower = 0.0;  ///< Finite.
    double upper = 0.0;  ///< Finite or +infinity; >= lower.
    double cost = 0.0;   ///< Finite.
  };
  struct Row {
    std::vector<std::pair<size_t, double>> coeffs;
    Relation rel = Relation::kLessEq;
    double rhs = 0.0;
  };
  std::vector<Variable> variables;
  std::vector<Row> rows;

  /// Builds the solver problem. An instance produced by a successful
  /// DecodeLpInstance is always well-formed, so the problem's
  /// build_status() is OK.
  LpProblem ToProblem() const;
};

/// Per-solve options.
struct LpSolveOptions {
  /// Pivot budget, the LP analogue of SatSolveOptions::max_decisions: a
  /// solve that has not reached an answer after this many pivots returns
  /// kResourceExhausted. Bound flips do not count as pivots.
  size_t max_pivots = 200000;
};

/// A linear program under construction.
///
/// Malformed input (non-finite or empty bounds, NaN costs/coefficients,
/// unknown variable indices) does not abort: the first violation is
/// recorded and surfaced as an InvalidArgument status by Solve(), so
/// untrusted instances (fuzzers, decoded files) can probe the builder
/// freely and still hard-fail with a recoverable Status.
class LpProblem {
 public:
  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

  LpProblem() = default;

  /// Adds a variable with bounds [lb, ub] (ub may be kInfinity) and
  /// objective coefficient `cost`. Returns its index. Requires lb finite,
  /// lb <= ub, and cost finite; violations poison build_status().
  size_t AddVariable(double lb, double ub, double cost);

  /// Adds a constraint sum_i coeffs[i].second * x_{coeffs[i].first}
  /// `rel` rhs. Variable indices must already exist and coefficients and
  /// rhs must be finite; violations poison build_status().
  void AddConstraint(const std::vector<std::pair<size_t, double>>& coeffs,
                     Relation rel, double rhs);

  size_t num_variables() const { return instance_.variables.size(); }
  size_t num_constraints() const { return instance_.rows.size(); }

  /// The validated plain-data instance (what the solver consumes). Only
  /// meaningful while build_status() is OK.
  const LpInstance& instance() const { return instance_; }

  /// OK unless a builder call above was handed a malformed variable or
  /// constraint; then the first violation, as InvalidArgument.
  const Status& build_status() const { return build_status_; }

  /// Solves to optimality with the revised simplex from a cold start,
  /// within the pivot budget in `options`. Returns the recorded
  /// build_status() error if the instance is malformed, kInfeasible if no
  /// feasible point exists, kUnbounded if the objective improves without
  /// bound (our decoding LPs are always bounded, so callers may treat it
  /// as a modeling error), and kResourceExhausted when options.max_pivots
  /// pivots did not reach an answer: the budget ran out, the solver is
  /// healthy, and lp.pivots counts the pivots spent. kInternal is left
  /// for numerical breakdown (a basis that cannot be refactorized).
  [[nodiscard]] Result<LpSolution> Solve(
      const LpSolveOptions& options = LpSolveOptions{}) const;

 private:
  LpInstance instance_;
  Status build_status_;
};

}  // namespace pso

#endif  // PSO_SOLVER_LP_H_
