#include "solver/sat.h"

#include <algorithm>
#include <string>

#include "common/str_util.h"
#include "solver/cdcl.h"

namespace pso {

SatSolver::SatSolver(uint32_t num_vars) { instance_.num_vars = num_vars; }

void SatSolver::AddClause(std::vector<Lit> clause) {
  for (Lit l : clause) {
    if (LitVar(l) >= instance_.num_vars) {
      // Poison instead of abort: Solve() surfaces the error as a Status,
      // keeping the builder safe for untrusted (fuzzed/parsed) formulas.
      if (build_status_.ok()) {
        build_status_ = Status::InvalidArgument(
            StrFormat("clause %zu references undeclared variable %u",
                      instance_.clauses.size(), LitVar(l)));
      }
      return;
    }
  }
  // Drop duplicates; detect tautologies.
  std::sort(clause.begin(), clause.end());
  clause.erase(std::unique(clause.begin(), clause.end()), clause.end());
  for (size_t i = 0; i + 1 < clause.size(); ++i) {
    if (LitNegate(clause[i]) == clause[i + 1]) return;  // tautology
  }
  if (clause.empty()) {
    instance_.trivially_unsat = true;
    return;
  }
  instance_.clauses.push_back(std::move(clause));
}

uint32_t SatSolver::NewVariable() { return instance_.num_vars++; }

void SatSolver::AddAtMostK(const std::vector<Lit>& lits, size_t k) {
  const size_t n = lits.size();
  if (k >= n) return;  // vacuous
  if (k == 0) {
    for (Lit l : lits) AddUnit(LitNegate(l));
    return;
  }
  // Sinz sequential counter: s[i][j] = "at least j+1 of the first i+1
  // literals are true".
  std::vector<std::vector<uint32_t>> s(n, std::vector<uint32_t>(k));
  for (size_t i = 0; i + 1 < n; ++i) {  // s for the last literal is unused
    for (size_t j = 0; j < k; ++j) s[i][j] = NewVariable();
  }
  // l_0 -> s_0,0 ; s_0,j false for j >= 1.
  AddBinary(LitNegate(lits[0]), MakeLit(s[0][0], true));
  for (size_t j = 1; j < k; ++j) AddUnit(MakeLit(s[0][j], false));
  for (size_t i = 1; i + 1 < n; ++i) {
    // l_i -> s_i,0 ; s_{i-1},0 -> s_i,0.
    AddBinary(LitNegate(lits[i]), MakeLit(s[i][0], true));
    AddBinary(MakeLit(s[i - 1][0], false), MakeLit(s[i][0], true));
    for (size_t j = 1; j < k; ++j) {
      // l_i & s_{i-1},{j-1} -> s_i,j ; s_{i-1},j -> s_i,j.
      AddTernary(LitNegate(lits[i]), MakeLit(s[i - 1][j - 1], false),
                 MakeLit(s[i][j], true));
      AddBinary(MakeLit(s[i - 1][j], false), MakeLit(s[i][j], true));
    }
    // Overflow: l_i & s_{i-1},{k-1} is a conflict.
    AddBinary(LitNegate(lits[i]), MakeLit(s[i - 1][k - 1], false));
  }
  if (n >= 2) {
    AddBinary(LitNegate(lits[n - 1]), MakeLit(s[n - 2][k - 1], false));
  }
}

void SatSolver::AddAtLeastK(const std::vector<Lit>& lits, size_t k) {
  if (k == 0) return;
  if (k > lits.size()) {
    if (build_status_.ok()) {
      build_status_ = Status::InvalidArgument(
          StrFormat("at-least-%zu over %zu literals is unsatisfiable by "
                    "construction",
                    k, lits.size()));
    }
    return;
  }
  if (k == lits.size()) {
    for (Lit l : lits) AddUnit(l);
    return;
  }
  if (k == 1) {
    AddClause(lits);
    return;
  }
  // Direct sequential counter, O(|lits| * k). The dual route (at-most
  // (n-k) over the negations) costs O(|lits| * (|lits| - k)) — quadratic
  // when k is small and the literal set is census-row wide.
  //
  // t[i][j] = "at least j+1 of the first i+1 literals are true", with
  // implications from t to its evidence so forcing t[n-1][k-1] true makes
  // any under-count assignment contradictory.
  const size_t n = lits.size();
  std::vector<std::vector<uint32_t>> t(n);
  for (size_t i = 0; i + 1 < n; ++i) {
    t[i].resize(std::min(i + 1, k));
    for (size_t j = 0; j < t[i].size(); ++j) t[i][j] = NewVariable();
  }
  t[n - 1].resize(k);
  for (size_t j = 0; j + 1 < k; ++j) t[n - 1][j] = 0;  // unused
  t[n - 1][k - 1] = NewVariable();

  // t[0][0] -> l_0.
  AddBinary(MakeLit(t[0][0], false), lits[0]);
  for (size_t i = 1; i < n; ++i) {
    for (size_t j = 0; j < t[i].size(); ++j) {
      if (i + 1 == n && j + 1 < k) continue;  // only the root is needed
      Lit tij = MakeLit(t[i][j], false);  // ~t[i][j]
      if (j == i) {
        // All of the first i+1 literals are true.
        AddBinary(tij, lits[i]);
        AddBinary(tij, MakeLit(t[i - 1][j - 1], true));
        continue;
      }
      // t[i][j] -> t[i-1][j] or (l_i and t[i-1][j-1]).
      AddTernary(tij, MakeLit(t[i - 1][j], true), lits[i]);
      if (j == 0) continue;  // "at least 1 among fewer" needs no j-1 arm
      AddTernary(tij, MakeLit(t[i - 1][j], true),
                 MakeLit(t[i - 1][j - 1], true));
    }
  }
  AddUnit(MakeLit(t[n - 1][k - 1], true));
}

void SatSolver::AddExactlyK(const std::vector<Lit>& lits, size_t k) {
  AddAtMostK(lits, k);
  AddAtLeastK(lits, k);
}

void SatSolver::AddAtMostOne(const std::vector<Lit>& lits) {
  // Pairwise is propagation-strongest but quadratic in clauses; past a
  // small cutoff the sequential counter's O(n) auxiliaries win (the
  // census encoding hands us candidate rows thousands of literals wide).
  constexpr size_t kPairwiseCutoff = 16;
  if (lits.size() > kPairwiseCutoff) {
    AddAtMostK(lits, 1);
    return;
  }
  for (size_t i = 0; i < lits.size(); ++i) {
    for (size_t j = i + 1; j < lits.size(); ++j) {
      AddBinary(LitNegate(lits[i]), LitNegate(lits[j]));
    }
  }
}

void SatSolver::AddExactlyOne(const std::vector<Lit>& lits) {
  AddClause(lits);
  AddAtMostOne(lits);
}

Result<SatSolution> SatSolver::Solve(size_t max_decisions) const {
  if (!build_status_.ok()) return build_status_;
  SatSolveOptions options;
  options.max_decisions = max_decisions;
  return SolveCdcl(instance_, options);
}

}  // namespace pso
