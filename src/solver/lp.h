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

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/result.h"

namespace pso {

class LpProblem;

/// Relation of a linear constraint.
enum class Relation { kLessEq, kGreaterEq, kEqual };

/// One simplex pivot, as recorded by the introspection trace: which
/// column entered, which basis variable left, and the objective after
/// the pivot. A replayable audit record of the solver's path. Columns
/// number the structural variables first, then the row logicals.
struct LpPivotStep {
  uint8_t phase = 2;        ///< 1 = feasibility phase, 2 = optimization.
  size_t iteration = 0;     ///< Global pivot index within the solve.
  size_t entering = 0;      ///< Column entering the basis.
  size_t leaving = 0;       ///< Basis variable leaving (pre-pivot).
  double objective = 0.0;   ///< Objective value after the pivot.
};

/// Outcome of an LP solve.
struct LpSolution {
  std::vector<double> values;  ///< Optimal variable assignment.
  double objective = 0.0;      ///< Optimal objective value.
  size_t iterations = 0;       ///< Simplex pivots performed.
  /// Pivot-by-pivot audit trail: the most recent kPivotTraceCapacity
  /// pivots (a bounded ring). Collected only while tracing is enabled
  /// (trace::Enabled()); empty otherwise, so the default path pays
  /// nothing.
  std::vector<LpPivotStep> pivot_trace;
};

/// Ring capacity of LpSolution::pivot_trace.
inline constexpr size_t kPivotTraceCapacity = 256;

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

/// Basis membership of one column, as snapshotted for warm starts.
enum class LpVarStatus : uint8_t {
  kAtLower = 0,  ///< Nonbasic at its lower bound.
  kAtUpper = 1,  ///< Nonbasic at its upper bound.
  kBasic = 2,    ///< In the basis.
};

/// A basis snapshot: one status per structural variable and one per row
/// logical. Produced by an optimal solve and fed back into a later solve
/// of a same-shaped (or grown) instance. A basis from a *smaller*
/// instance warm-starts a grown one: appended rows start with their
/// logical basic, appended variables start at their lower bound (the
/// natural state after AddConstraint/AddVariable).
struct LpBasis {
  std::vector<LpVarStatus> structurals;
  std::vector<LpVarStatus> logicals;

  bool empty() const { return structurals.empty() && logicals.empty(); }
};

/// Per-solve options. The pointers are borrowed; null = off.
struct LpSolveOptions {
  /// Pivot budget, the LP analogue of SatSolveOptions::max_decisions: a
  /// solve that has not reached an answer after this many pivots returns
  /// kResourceExhausted. Bound flips do not count as pivots.
  size_t max_pivots = 200000;
  /// Basis hint from a previous solve. A singular or mis-shaped hint is
  /// silently replaced by a cold start.
  const LpBasis* warm_start = nullptr;
  /// When non-null, the final basis is written here on an optimal solve
  /// (left untouched otherwise).
  LpBasis* final_basis = nullptr;
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

  /// Solves to optimality with the revised simplex, warm-started,
  /// budgeted and basis-reporting as `options` ask. Returns the recorded
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
