// Fuzz target: binary LP-instance decoder (solver/lp_io.h).
//
// Any byte string must either decode or fail with a Status — never
// crash or over-allocate. Accepted instances must re-encode to a
// decodable payload, build a clean LpProblem, and (when small) survive a
// solve on the revised simplex AND its dense-tableau oracle with any
// Status outcome — and the two must agree on that outcome: different
// statuses for the same decodable instance is a solver bug, not an input
// property.
//
// Two sizes are solved. Tiny instances (at most 12 variables and 24
// rows) are compared whatever their numbers, on the default pivot
// budget. Decode-sized instances (at most 160 variables and 64 rows)
// admit the corpus's exact-answer L1 decode LP (exact_l1_perturbed.bin:
// n = 9, 64 queries), whose degenerate optimum drives the revised
// simplex through its bound perturbation and unperturbed clean-up. They
// are compared only while every number is a small integer, as in a
// subset-sum decode: both engines use absolute pivot and feasibility
// tolerances and no scaling, and a single mutated coefficient such as
// 1.0000076 leaves a basis so ill-conditioned (pivots near 1e-7, FTRAN
// entries near 1e11) that either engine can miss the optimum. They run
// on a 20,000-pivot budget, and an oracle that exhausts it gives no
// verdict to compare: the dense tableau grinds through degenerate
// vertices with Bland's rule.

#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "oracles/oracles.h"
#include "solver/lp.h"
#include "solver/lp_io.h"

namespace {

// Every finite number of the instance is an integer of magnitude at
// most 2^20.
bool SmallIntegerData(const pso::LpInstance& inst) {
  auto ok = [](double v) {
    return std::isinf(v) || (std::fabs(v) <= 1048576.0 && v == std::trunc(v));
  };
  for (const pso::LpInstance::Variable& v : inst.variables) {
    if (!ok(v.lower) || !ok(v.upper) || !ok(v.cost)) return false;
  }
  for (const pso::LpInstance::Row& row : inst.rows) {
    if (!ok(row.rhs)) return false;
    for (const auto& [idx, coeff] : row.coeffs) {
      if (!ok(coeff)) return false;
    }
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  pso::Result<pso::LpInstance> decoded = pso::DecodeLpInstance(data, size);
  if (!decoded.ok()) return 0;

  // Decoder acceptance implies encoder round-trip and builder acceptance.
  pso::Result<pso::LpInstance> again =
      pso::DecodeLpInstance(pso::EncodeLpInstance(*decoded));
  if (!again.ok()) std::abort();

  pso::LpProblem lp = decoded->ToProblem();
  if (!lp.build_status().ok()) std::abort();

  const size_t vars = decoded->variables.size();
  const size_t rows = decoded->rows.size();
  const bool tiny = vars <= 12 && rows <= 24;
  if (tiny || (vars <= 160 && rows <= 64 && SmallIntegerData(*decoded))) {
    pso::StatusCode codes[2];
    double objectives[2] = {0.0, 0.0};
    const pso::oracles::LpEngine engines[2] = {
        pso::oracles::kDenseTableau, pso::oracles::kRevisedSimplex};
    // Tiny instances run on the default budget and are always compared.
    // A decode-sized degenerate mutant gets a smaller budget, which keeps
    // its dense solve to a fraction of a second.
    pso::LpSolveOptions options;
    if (!tiny) options.max_pivots = 20000;
    for (int b = 0; b < 2; ++b) {
      pso::Result<pso::LpSolution> sol = engines[b].solve(*decoded, options);
      codes[b] = sol.ok() ? pso::StatusCode::kOk : sol.status().code();
      if (sol.ok()) {
        objectives[b] = sol->objective;
        // Optimum must respect the variable bounds it was solved under.
        for (size_t i = 0; i < decoded->variables.size(); ++i) {
          const pso::LpInstance::Variable& v = decoded->variables[i];
          if (sol->values[i] < v.lower - 1e-6 ||
              sol->values[i] > v.upper + 1e-6) {
            std::abort();
          }
        }
      }
    }
    if (!tiny && codes[0] == pso::StatusCode::kResourceExhausted) return 0;
    // Exact status agreement; objective agreement when both are optimal.
    // The tolerance is loose: fuzzed coefficients reach the 1e18 range
    // where the two pivot orders accumulate different roundoff.
    if (codes[0] != codes[1]) std::abort();
    if (codes[0] == pso::StatusCode::kOk) {
      double scale = std::fmax(1.0, std::fmax(std::fabs(objectives[0]),
                                              std::fabs(objectives[1])));
      if (std::fabs(objectives[0] - objectives[1]) > 1e-4 * scale) {
        std::abort();
      }
    }
  }
  return 0;
}
