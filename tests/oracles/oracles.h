// Test-only reference solvers: differential oracles for libpso's two
// engines (the revised simplex and CDCL). They live outside the library
// so that pso_solver ships one engine per problem class; only tests and
// the fuzz harnesses link them. L1FitPrimal is the reference model for
// the LP decoder, which solves the same fit through its dual.
//
// Each oracle has the signature of the engine it checks, so a test can
// run the same case on both through one function pointer: the LpEngine /
// SatEngine pairs at the bottom are what parameterized suites iterate.

#ifndef PSO_TESTS_ORACLES_ORACLES_H_
#define PSO_TESTS_ORACLES_ORACLES_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "solver/cdcl.h"
#include "solver/lp.h"
#include "solver/revised_simplex.h"
#include "solver/sat.h"

namespace pso::oracles {

/// The original dense two-phase tableau simplex. Same contract as
/// SolveRevisedSimplex: `model` must be well-formed; kInfeasible,
/// kUnbounded and kResourceExhausted (more than options.max_pivots
/// pivots, all of them counted in lp.pivots) mean what they mean there.
[[nodiscard]] Result<LpSolution> SolveDenseTableau(
    const LpInstance& model, const LpSolveOptions& options);

/// Chronological DPLL with occurrence-list unit propagation and static
/// activity-guided branching. Same contract as SolveCdcl; it leaves the
/// CDCL-only solution fields (learned_clauses, restarts) at zero and
/// reports conflicts == backtracks.
[[nodiscard]] Result<SatSolution> SolveDpll(const SatInstance& instance,
                                            const SatSolveOptions& options);

/// The residual-splitting L1 fit of a subset-sum transcript:
///   minimize sum_j (u_j + v_j)  subject to
///   <q_j, x> + u_j - v_j = a_j,  x in [0,1]^n,  u, v >= 0,
/// with x as variables [0, n) and u_j, v_j after them. Its optimum is
/// the minimum of ||Qx - a||_1 over the box, which
/// recon::LpDecodeRecorded reaches through this program's n-row dual.
/// Every queries[j] must have length n.
LpProblem L1FitPrimal(size_t n,
                      const std::vector<std::vector<uint8_t>>& queries,
                      const std::vector<double>& answers);

/// An LP solver under differential test, with the label tests print.
struct LpEngine {
  const char* name;
  Result<LpSolution> (*solve)(const LpInstance&, const LpSolveOptions&);
};

/// A SAT solver under differential test, with the label tests print.
struct SatEngine {
  const char* name;
  Result<SatSolution> (*solve)(const SatInstance&, const SatSolveOptions&);
};

inline constexpr LpEngine kDenseTableau{"dense", &SolveDenseTableau};
inline constexpr LpEngine kRevisedSimplex{"sparse", &SolveRevisedSimplex};
inline constexpr SatEngine kDpll{"dpll", &SolveDpll};
inline constexpr SatEngine kCdcl{"cdcl", &SolveCdcl};

}  // namespace pso::oracles

#endif  // PSO_TESTS_ORACLES_ORACLES_H_
