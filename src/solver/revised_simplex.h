// Sparse revised simplex: libpso's LP engine.
//
// LpProblem::Solve (lp.h) is the usual way in; SolveRevisedSimplex is the
// same engine on a plain LpInstance. The header also publishes the tuning
// constants tests need to craft instances that cross specific solver
// regimes (e.g. enough pivots to force a periodic refactorization, or a
// degenerate streak long enough to trip the bound perturbation).
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
//     variables; phase 2 optimizes. Dantzig pricing; entering variables
//     that hit their own opposite bound flip without a basis change. The
//     ratio test steps by the smallest blocking ratio and breaks
//     near-ties by smallest basic index.
//   - Degeneracy: when phase 2 strings more than kDegenerateStreak
//     zero-step pivots together (an exact-answer L1 decode's optimum
//     makes every residual zero), every finite bound of every non-fixed
//     column is widened once by a small, deterministic, per-column
//     amount. The perturbed problem is solved from the current basis;
//     then the original bounds return and an unperturbed clean-up
//     (phase 1 + phase 2, Bland's rule after a degenerate streak as the
//     termination guarantee) decides the status and the objective.
//   - A pivot budget (LpSolveOptions::max_pivots) bounds the work; an
//     overrun is kResourceExhausted with every pivot counted.
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

/// Consecutive degenerate (zero-step) pivots tolerated before phase 2
/// perturbs the bounds (first pass) or pricing switches to Bland's rule
/// (phase 1 and the unperturbed clean-up's phase 2).
inline constexpr size_t kDegenerateStreak = 64;

}  // namespace pso::revised_simplex_internal

#endif  // PSO_SOLVER_REVISED_SIMPLEX_H_
