// Sparse revised simplex: libpso's LP engine.
//
// LpProblem::Solve (lp.h) is the usual way in; SolveRevisedSimplex is the
// same engine on a plain LpInstance. The header also publishes the tuning
// constants tests need to craft instances that cross specific solver
// regimes (e.g. enough pivots to force a periodic refactorization, or a
// degenerate streak long enough to trip the Bland's-rule fallback).
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
//     pivots (and on warm starts).
//   - Composite phase 1 drives out bound infeasibilities of basic
//     variables; phase 2 optimizes. Dantzig pricing with a Bland
//     fallback after kBlandStreak degenerate steps; entering variables
//     that hit their own opposite bound flip without a basis change.
//   - Warm starts accept an LpBasis from a previous (possibly smaller)
//     solve; a singular or mis-shaped basis silently cold-starts.

#ifndef PSO_SOLVER_REVISED_SIMPLEX_H_
#define PSO_SOLVER_REVISED_SIMPLEX_H_

#include <cstddef>

#include "common/result.h"
#include "solver/lp.h"

namespace pso {

/// Solves `model` to optimality. `model` must be well-formed (LpProblem's
/// builder and the lp_io decoder both guarantee that). Returns
/// kInfeasible when no point satisfies the constraints, kUnbounded when
/// the objective improves without bound, and kInternal on iteration-limit
/// exhaustion.
[[nodiscard]] Result<LpSolution> SolveRevisedSimplex(
    const LpInstance& model, const LpSolveOptions& options);

}  // namespace pso

namespace pso::revised_simplex_internal {

/// Pivots between from-scratch basis refactorizations. Between refreshes
/// each pivot appends one eta to the product-form file.
inline constexpr size_t kRefactorInterval = 64;

/// Degenerate (zero-step) pivots tolerated before pricing switches from
/// Dantzig to Bland's rule.
inline constexpr size_t kBlandStreak = 64;

}  // namespace pso::revised_simplex_internal

#endif  // PSO_SOLVER_REVISED_SIMPLEX_H_
