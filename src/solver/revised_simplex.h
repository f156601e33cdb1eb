// Sparse revised simplex: libpso's LP engine.
//
// LpProblem::Solve (lp.h) is the usual way in; SolveRevisedSimplex is the
// same engine on a plain LpInstance. The header also publishes the tuning
// constants tests need to craft instances that cross specific solver
// regimes (e.g. enough pivots to force a periodic refactorization, or a
// degenerate streak long enough to switch pricing to Bland's rule).
//
// Algorithm sketch (details in revised_simplex.cc):
//   - Bounded-variable formulation: every constraint row i gets a logical
//     variable s_i with A x + s = b; relations become bounds on s
//     (<= : s in [0, inf), >= : s in (-inf, 0], == : s fixed at 0), and
//     variable bounds never become rows — the working dimension is the
//     constraint count, not constraints + bounds.
//   - The constraint matrix is stored column-sparse (CSC); the basis
//     inverse is a product-form eta file, refreshed by a from-scratch
//     refactorization with partial pivoting every kRefactorInterval
//     pivots.
//   - Composite phase 1 drives out bound infeasibilities of basic
//     variables; phase 2 optimizes. Dantzig pricing; entering variables
//     that hit their own opposite bound flip without a basis change. The
//     ratio test steps by the smallest blocking ratio and breaks
//     near-ties by smallest basic index.
//   - Degeneracy: when either phase strings more than kDegenerateStreak
//     zero-step pivots together, pricing switches to Bland's rule (first
//     eligible index), which cannot cycle; a nonzero step switches back.
//   - A pivot budget (LpSolveOptions::max_pivots) bounds the work; an
//     overrun is kResourceExhausted with every pivot counted.
//   - Every solve starts from the all-logical basis. On exit, one BTRAN
//     yields the row duals.

#ifndef PSO_SOLVER_REVISED_SIMPLEX_H_
#define PSO_SOLVER_REVISED_SIMPLEX_H_

#include <cstddef>

#include "common/result.h"
#include "solver/lp.h"

namespace pso {

/// Solves `model` to optimality. `model` must be well-formed (LpProblem's
/// builder and the lp_io decoder both guarantee that). Returns
/// kInfeasible when no point satisfies the constraints, kUnbounded when
/// the objective improves without bound, kResourceExhausted when
/// options.max_pivots pivots did not reach an answer, and kInternal only
/// on numerical breakdown.
[[nodiscard]] Result<LpSolution> SolveRevisedSimplex(
    const LpInstance& model, const LpSolveOptions& options);

}  // namespace pso

namespace pso::revised_simplex_internal {

/// Pivots between from-scratch basis refactorizations. Between refreshes
/// each pivot appends one eta to the product-form file.
inline constexpr size_t kRefactorInterval = 64;

/// Consecutive degenerate (zero-step) pivots tolerated, in either phase,
/// before pricing switches to Bland's rule.
inline constexpr size_t kDegenerateStreak = 64;

}  // namespace pso::revised_simplex_internal

#endif  // PSO_SOLVER_REVISED_SIMPLEX_H_
