// Fuzz target: count-constraint CSP builder and enumerator
// (solver/csp.h).
//
// Bytes drive instance construction, including deliberately malformed
// pieces (zero domains, wrong mask arity, inverted count windows). A
// poisoned instance must report build_status() != OK and enumerate
// nothing with complete == false; a clean instance must only emit
// non-decreasing, constraint-satisfying solutions, and a SAT
// cross-encoding of it must agree on satisfiability on BOTH the CDCL
// engine and its DPLL oracle.

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "fuzz_util.h"
#include "oracles/oracles.h"
#include "solver/csp.h"
#include "solver/sat.h"

namespace {

struct FuzzCount {
  std::vector<bool> mask;
  int64_t lo = 0;
  int64_t hi = 0;
};

// SAT cross-encoding of a clean instance (mask arity == domain): one
// boolean per (variable, value), exactly-one rows, an auxiliary "matches
// constraint" literal per variable, cardinality bounds over the
// auxiliaries. Returns -1 UNSAT, 1 SAT, 0 undecided.
int CspViaSat(const pso::oracles::SatEngine& engine, size_t num_vars,
              size_t domain, const std::vector<FuzzCount>& counts) {
  pso::SatSolver solver(static_cast<uint32_t>(num_vars * domain));
  auto x = [&](size_t var, size_t val) {
    return pso::MakeLit(static_cast<uint32_t>(var * domain + val), true);
  };
  for (size_t i = 0; i < num_vars; ++i) {
    std::vector<pso::Lit> row;
    for (size_t v = 0; v < domain; ++v) row.push_back(x(i, v));
    solver.AddExactlyOne(row);
  }
  for (const FuzzCount& count : counts) {
    if (count.hi < 0 ||
        count.lo > static_cast<int64_t>(num_vars)) {
      solver.AddClause({});  // no count can land in this window
      continue;
    }
    std::vector<pso::Lit> ys;
    for (size_t i = 0; i < num_vars; ++i) {
      pso::Lit y = pso::MakeLit(solver.NewVariable(), true);
      std::vector<pso::Lit> forward{pso::LitNegate(y)};
      for (size_t v = 0; v < domain; ++v) {
        if (!count.mask[v]) continue;
        forward.push_back(x(i, v));
        solver.AddBinary(pso::LitNegate(x(i, v)), y);
      }
      solver.AddClause(forward);
      ys.push_back(y);
    }
    if (count.hi < static_cast<int64_t>(num_vars)) {
      solver.AddAtMostK(ys, static_cast<size_t>(count.hi));
    }
    if (count.lo > 0) {
      solver.AddAtLeastK(ys, static_cast<size_t>(count.lo));
    }
  }
  if (!solver.build_status().ok()) std::abort();
  pso::SatSolveOptions options;
  options.max_decisions = 50000;
  pso::Result<pso::SatSolution> sol = engine.solve(solver.instance(), options);
  if (!sol.ok()) {
    if (sol.status().code() != pso::StatusCode::kResourceExhausted) {
      std::abort();
    }
    return 0;
  }
  return sol->satisfiable ? 1 : -1;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  pso::fuzz::ByteReader r(data, size);

  size_t num_vars = r.Below(6);
  size_t domain = r.Below(5);  // 0 is a legal-to-request, poisoned domain
  pso::CountCsp csp(num_vars, domain);

  std::vector<FuzzCount> recorded;
  size_t num_constraints = r.Below(5);
  for (size_t c = 0; c < num_constraints; ++c) {
    // Mask length intentionally independent of the domain size so arity
    // mismatches get exercised.
    size_t mask_len = r.Bool() ? domain : r.Below(7);
    std::vector<bool> mask;
    for (size_t i = 0; i < mask_len; ++i) mask.push_back(r.Bool());
    int64_t lo = r.Range(-2, 6);
    int64_t hi = r.Range(-2, 6);
    recorded.push_back(FuzzCount{mask, lo, hi});
    csp.AddCountConstraint(std::move(mask), lo, hi);
  }

  pso::CspStats stats;
  std::vector<std::vector<size_t>> solutions =
      csp.Enumerate(/*max_solutions=*/64, /*max_nodes=*/20000, &stats);

  if (!csp.build_status().ok()) {
    // Poisoned instances must refuse to report solutions as exhaustive.
    if (!solutions.empty() || stats.complete) std::abort();
    return 0;
  }

  for (const std::vector<size_t>& sol : solutions) {
    if (sol.size() != num_vars) std::abort();
    for (size_t i = 0; i < sol.size(); ++i) {
      if (sol[i] >= domain) std::abort();
      if (i > 0 && sol[i] < sol[i - 1]) std::abort();  // symmetry broken
    }
  }
  (void)csp.IsSatisfiable(/*max_nodes=*/20000);

  // Engine-vs-oracle differential: when the enumeration above was
  // exhaustive, its satisfiability verdict is ground truth for the SAT
  // encoding, so CDCL and DPLL must each match it.
  if (stats.complete) {
    const int truth = solutions.empty() ? -1 : 1;
    const int dpll = CspViaSat(pso::oracles::kDpll, num_vars, domain, recorded);
    const int cdcl = CspViaSat(pso::oracles::kCdcl, num_vars, domain, recorded);
    if (dpll != 0 && dpll != truth) std::abort();
    if (cdcl != 0 && cdcl != truth) std::abort();
  }
  return 0;
}
