// Differential property tests for the three solvers, each checked
// against an independent brute-force oracle on randomized tiny
// instances (ctest label: proptest):
//
//   * the revised simplex and its dense-tableau oracle vs exhaustive
//     vertex enumeration (a bounded feasible
//     region's optimum is attained at a vertex, and every vertex is the
//     intersection of n active planes from the bound/constraint set);
//   * CDCL and its DPLL oracle vs exhaustive truth-table search, and vs
//     each other (status must agree exactly);
//   * count-CSP vs a SAT cross-encoding of the same instance solved by
//     each of the two (and vs direct multiset enumeration).
//
// All cases derive from pinned Rng::StreamAt seeds; see proptest.h.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "oracles/oracles.h"
#include "proptest.h"
#include "solver/csp.h"
#include "solver/lp.h"
#include "solver/lp_io.h"
#include "solver/sat.h"

namespace pso {
namespace {

// ---------------------------------------------------------------------
// LP vs brute-force vertex enumeration.
// ---------------------------------------------------------------------

// Integer-valued tiny LPs keep the oracle's Gaussian elimination exact to
// well below the comparison tolerance. About one variable in seven gets
// an infinite upper bound, so the generator reaches the kUnbounded status
// path (the vertex oracle only runs on fully box-bounded instances).
LpInstance GenTinyLp(Rng& rng, size_t scale) {
  LpInstance inst;
  const size_t n = 1 + static_cast<size_t>(rng.UniformUint64(3));
  for (size_t i = 0; i < n; ++i) {
    LpInstance::Variable v;
    v.lower = static_cast<double>(rng.UniformInt(-3, 3));
    const int64_t max_width = static_cast<int64_t>(scale < 4 ? scale : 4);
    if (rng.Bernoulli(0.15)) {
      v.upper = std::numeric_limits<double>::infinity();
    } else {
      v.upper = v.lower + static_cast<double>(rng.UniformInt(0, max_width));
    }
    v.cost = static_cast<double>(rng.UniformInt(-3, 3));
    inst.variables.push_back(v);
  }
  const uint64_t max_rows = scale < 4 ? scale : 4;
  const size_t m = static_cast<size_t>(rng.UniformUint64(max_rows + 1));
  for (size_t r = 0; r < m; ++r) {
    LpInstance::Row row;
    for (size_t i = 0; i < n; ++i) {
      int64_t c = rng.UniformInt(-2, 2);
      if (c != 0) row.coeffs.emplace_back(i, static_cast<double>(c));
    }
    row.rel = static_cast<Relation>(rng.UniformUint64(3));
    row.rhs = static_cast<double>(rng.UniformInt(-6, 6));
    inst.rows.push_back(std::move(row));
  }
  return inst;
}

struct LpOracleResult {
  bool feasible = false;
  double objective = std::numeric_limits<double>::infinity();
};

// Solves the k x k system A x = b by Gaussian elimination with partial
// pivoting; false when singular (within tolerance).
bool SolveSquare(std::vector<std::vector<double>> a, std::vector<double> b,
                 std::vector<double>* x) {
  const size_t k = b.size();
  for (size_t col = 0; col < k; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < k; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    }
    if (std::fabs(a[pivot][col]) < 1e-9) return false;
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (size_t r = 0; r < k; ++r) {
      if (r == col) continue;
      double f = a[r][col] / a[col][col];
      if (f == 0.0) continue;
      for (size_t c = col; c < k; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  x->assign(k, 0.0);
  for (size_t i = 0; i < k; ++i) (*x)[i] = b[i] / a[i][i];
  return true;
}

bool PointFeasible(const LpInstance& inst, const std::vector<double>& x,
                   double tol) {
  for (size_t i = 0; i < inst.variables.size(); ++i) {
    if (x[i] < inst.variables[i].lower - tol ||
        x[i] > inst.variables[i].upper + tol) {
      return false;
    }
  }
  for (const LpInstance::Row& row : inst.rows) {
    double sum = 0.0;
    for (const auto& [idx, coeff] : row.coeffs) sum += coeff * x[idx];
    switch (row.rel) {
      case Relation::kLessEq:
        if (sum > row.rhs + tol) return false;
        break;
      case Relation::kGreaterEq:
        if (sum < row.rhs - tol) return false;
        break;
      case Relation::kEqual:
        if (std::fabs(sum - row.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

// Visits every point where n of `planes` (planes[k] . x = rhs[k], each
// plane with n entries) meet in a single point, and returns the minimum
// of `eval` over them (+inf when eval rejects them all).
template <typename Eval>
double MinOverIntersections(const std::vector<std::vector<double>>& planes,
                            const std::vector<double>& rhs, size_t n,
                            Eval eval) {
  double best = std::numeric_limits<double>::infinity();
  std::vector<size_t> pick(n, 0);
  // Odometer over all n-subsets (with repetition pruned by ordering).
  auto visit = [&](auto&& self, size_t depth, size_t first) -> void {
    if (depth == n) {
      std::vector<std::vector<double>> a(n);
      std::vector<double> b(n);
      for (size_t k = 0; k < n; ++k) {
        a[k] = planes[pick[k]];
        b[k] = rhs[pick[k]];
      }
      std::vector<double> x;
      if (!SolveSquare(std::move(a), std::move(b), &x)) return;
      best = std::min(best, eval(x));
      return;
    }
    for (size_t p = first; p < planes.size(); ++p) {
      pick[depth] = p;
      self(self, depth + 1, p + 1);
    }
  };
  visit(visit, 0, 0);
  return best;
}

// Enumerates every intersection of n planes drawn from the variable
// bounds and the constraint boundaries; the minimum objective over the
// feasible intersections is the LP optimum (the region is a polytope:
// every variable is box-bounded).
LpOracleResult BruteForceLp(const LpInstance& inst) {
  const size_t n = inst.variables.size();
  std::vector<std::vector<double>> planes;  // a . x = b, a has n entries
  std::vector<double> rhs;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> unit(n, 0.0);
    unit[i] = 1.0;
    planes.push_back(unit);
    rhs.push_back(inst.variables[i].lower);
    planes.push_back(std::move(unit));
    rhs.push_back(inst.variables[i].upper);
  }
  for (const LpInstance::Row& row : inst.rows) {
    std::vector<double> dense(n, 0.0);
    for (const auto& [idx, coeff] : row.coeffs) dense[idx] += coeff;
    planes.push_back(std::move(dense));
    rhs.push_back(row.rhs);
  }

  LpOracleResult out;
  out.objective = MinOverIntersections(
      planes, rhs, n, [&](const std::vector<double>& x) {
        if (!PointFeasible(inst, x, 1e-6)) {
          return std::numeric_limits<double>::infinity();
        }
        out.feasible = true;
        double obj = 0.0;
        for (size_t i = 0; i < n; ++i) obj += inst.variables[i].cost * x[i];
        return obj;
      });
  return out;
}

// Every generated instance is solved by the revised simplex AND the
// dense-tableau oracle; the statuses must match exactly (optimal /
// kInfeasible / kUnbounded) and optimal objectives must agree.
// Box-bounded instances are additionally checked, each solver on its own,
// against the brute-force vertex oracle.
struct SolverOutcome {
  const char* name = "";
  Status status;  // default-constructed OK
  double objective = 0.0;

  bool ok() const { return status.ok(); }
};

SolverOutcome SolveOn(const oracles::LpEngine& engine,
                      const LpInstance& inst) {
  SolverOutcome out;
  out.name = engine.name;
  Result<LpSolution> got = engine.solve(inst, LpSolveOptions{});
  if (got.ok()) {
    out.objective = got->objective;
  } else {
    out.status = got.status();
  }
  return out;
}

bool BoxBounded(const LpInstance& inst) {
  for (const LpInstance::Variable& v : inst.variables) {
    if (std::isinf(v.upper)) return false;
  }
  return true;
}

TEST(LpDifferentialTest, BackendsAgreeAndMatchVertexEnumeration) {
  proptest::Config cfg{/*master_seed=*/0x11aa22bb, /*iterations=*/300,
                       /*max_scale=*/4, /*min_scale=*/1};
  EXPECT_TRUE(proptest::ForAll<LpInstance>(
      cfg, GenTinyLp, [](const LpInstance& inst) -> std::string {
        const SolverOutcome dense = SolveOn(oracles::kDenseTableau, inst);
        const SolverOutcome sparse = SolveOn(oracles::kRevisedSimplex, inst);
        for (const SolverOutcome* r : {&dense, &sparse}) {
          if (!r->ok() &&
              r->status.code() != StatusCode::kInfeasible &&
              r->status.code() != StatusCode::kUnbounded) {
            return StrFormat("%s returned unexpected status %s", r->name,
                             r->status.ToString().c_str());
          }
        }
        if (dense.status.code() != sparse.status.code()) {
          return StrFormat(
              "status disagrees: dense=%s sparse=%s (%zu vars, %zu rows)",
              dense.status.ToString().c_str(),
              sparse.status.ToString().c_str(), inst.variables.size(),
              inst.rows.size());
        }
        if (dense.ok() &&
            std::fabs(dense.objective - sparse.objective) > 1e-6) {
          return StrFormat(
              "solvers disagree on objective: dense=%.9g sparse=%.9g",
              dense.objective, sparse.objective);
        }
        if (!BoxBounded(inst)) return "";  // oracle needs a polytope

        LpOracleResult oracle = BruteForceLp(inst);
        for (const SolverOutcome* r : {&dense, &sparse}) {
          if (r->ok() != oracle.feasible) {
            return StrFormat(
                "feasibility disagrees: %s=%s oracle=%s (%zu vars, %zu "
                "rows)",
                r->name, r->ok() ? "feasible" : "infeasible",
                oracle.feasible ? "feasible" : "infeasible",
                inst.variables.size(), inst.rows.size());
          }
          if (r->ok() && std::fabs(r->objective - oracle.objective) > 1e-5) {
            return StrFormat("objective disagrees: %s=%.9g oracle=%.9g",
                             r->name, r->objective, oracle.objective);
          }
        }
        return "";
      }));
}

// ---------------------------------------------------------------------
// Exact-answer L1 decoding LPs: the degenerate stall, the bound
// perturbation and the clean-up, vs the dense oracle and vs vertex
// enumeration.
// ---------------------------------------------------------------------

// The decoder's LP on exact subset-sum answers: n in [4, 10] box
// variables x and rows <s_j, x> + u_j - v_j = <s_j, secret>. At full
// scale (192 rows, 128 for n > 8, where the dense oracle's Bland grind
// would exhaust its pivot budget) most cases string enough zero-step
// pivots together to trip the perturbation.
struct ExactL1Case {
  size_t n = 0;
  LpInstance lp;
};

ExactL1Case GenExactL1(Rng& rng, size_t scale) {
  ExactL1Case c;
  c.n = 4 + static_cast<size_t>(rng.UniformUint64(7));
  std::vector<int> secret(c.n);
  for (int& bit : secret) bit = rng.Bernoulli(0.5) ? 1 : 0;
  for (size_t i = 0; i < c.n; ++i) c.lp.variables.push_back({0.0, 1.0, 0.0});
  const size_t rows = (c.n > 8 ? 16 : 24) * scale;
  const double inf = std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < rows; ++j) {
    LpInstance::Row row;
    row.rel = Relation::kEqual;
    for (size_t i = 0; i < c.n; ++i) {
      if (!rng.Bernoulli(0.5)) continue;
      row.coeffs.emplace_back(i, 1.0);
      row.rhs += secret[i];
    }
    row.coeffs.emplace_back(c.lp.variables.size(), 1.0);
    c.lp.variables.push_back({0.0, inf, 1.0});
    row.coeffs.emplace_back(c.lp.variables.size(), -1.0);
    c.lp.variables.push_back({0.0, inf, 1.0});
    c.lp.rows.push_back(std::move(row));
  }
  return c;
}

// The L1 LP's optimum in x alone: with u_j, v_j at their best for a
// given x, the objective is sum_j |<s_j, x> - a_j|, a convex piecewise
// linear function whose minimum over the box sits at a vertex of the
// arrangement of box facets and query hyperplanes.
double BruteForceL1Fit(const ExactL1Case& c) {
  const size_t n = c.n;
  std::vector<std::vector<double>> planes;
  std::vector<double> rhs;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> unit(n, 0.0);
    unit[i] = 1.0;
    planes.push_back(unit);
    rhs.push_back(0.0);
    planes.push_back(std::move(unit));
    rhs.push_back(1.0);
  }
  std::vector<std::vector<double>> queries;
  for (const LpInstance::Row& row : c.lp.rows) {
    std::vector<double> dense(n, 0.0);
    for (const auto& [idx, coeff] : row.coeffs) {
      if (idx < n) dense[idx] = coeff;
    }
    queries.push_back(dense);
    // Repeated queries repeat a plane: enumerate each plane once.
    if (std::find(planes.begin(), planes.end(), dense) != planes.end()) {
      continue;
    }
    planes.push_back(std::move(dense));
    rhs.push_back(row.rhs);
  }
  return MinOverIntersections(
      planes, rhs, n, [&](const std::vector<double>& x) {
        for (double xi : x) {
          if (xi < -1e-9 || xi > 1.0 + 1e-9) {
            return std::numeric_limits<double>::infinity();
          }
        }
        double total = 0.0;
        for (size_t j = 0; j < queries.size(); ++j) {
          double fit = 0.0;
          for (size_t i = 0; i < n; ++i) fit += queries[j][i] * x[i];
          total += std::fabs(fit - c.lp.rows[j].rhs);
        }
        return total;
      });
}

TEST(LpDifferentialTest, PerturbedExactL1DecodesMatchOracles) {
  proptest::Config cfg{/*master_seed=*/0x77ee11dd, /*iterations=*/30,
                       /*max_scale=*/8, /*min_scale=*/1};
  size_t perturbed = 0;
  EXPECT_TRUE(proptest::ForAll<ExactL1Case>(
      cfg, GenExactL1, [&](const ExactL1Case& c) -> std::string {
        const uint64_t before =
            metrics::GetCounter("lp.perturbations").value();
        const SolverOutcome sparse = SolveOn(oracles::kRevisedSimplex, c.lp);
        perturbed += metrics::GetCounter("lp.perturbations").value() - before;
        const SolverOutcome dense = SolveOn(oracles::kDenseTableau, c.lp);
        for (const SolverOutcome* r : {&dense, &sparse}) {
          if (!r->ok()) {
            return StrFormat("%s failed: %s (n=%zu, %zu rows)", r->name,
                             r->status.ToString().c_str(), c.n,
                             c.lp.rows.size());
          }
        }
        if (std::fabs(dense.objective - sparse.objective) > 1e-6) {
          return StrFormat("solvers disagree on objective: dense=%.9g "
                           "sparse=%.9g (n=%zu, %zu rows)",
                           dense.objective, sparse.objective, c.n,
                           c.lp.rows.size());
        }
        // Vertex enumeration is exponential in n: only the smallest
        // arrangements get it.
        if (c.n > 4) return "";
        const double oracle = BruteForceL1Fit(c);
        if (std::fabs(sparse.objective - oracle) > 1e-6) {
          return StrFormat("objective disagrees: sparse=%.9g oracle=%.9g",
                           sparse.objective, oracle);
        }
        return "";
      }));
  // The family exists to drive the perturbation path.
  EXPECT_GE(perturbed, 2 * cfg.iterations / 3);
}

// ---------------------------------------------------------------------
// SAT vs exhaustive truth-table search.
// ---------------------------------------------------------------------

struct CnfCase {
  uint32_t num_vars = 0;
  std::vector<std::vector<Lit>> clauses;
};

CnfCase GenCnf(Rng& rng, size_t scale) {
  CnfCase cnf;
  const uint64_t max_vars = 2 + (scale < 10 ? scale : 10);  // <= 12
  cnf.num_vars = 1 + static_cast<uint32_t>(rng.UniformUint64(max_vars));
  const size_t num_clauses =
      static_cast<size_t>(rng.UniformUint64(3 * scale + 2));
  for (size_t c = 0; c < num_clauses; ++c) {
    size_t len = 1 + static_cast<size_t>(rng.UniformUint64(3));
    std::vector<Lit> clause;
    for (size_t k = 0; k < len; ++k) {
      uint32_t var = static_cast<uint32_t>(rng.UniformUint64(cnf.num_vars));
      clause.push_back(MakeLit(var, rng.Bernoulli(0.5)));
    }
    cnf.clauses.push_back(std::move(clause));
  }
  return cnf;
}

bool AssignmentSatisfies(const CnfCase& cnf, uint64_t mask) {
  for (const std::vector<Lit>& clause : cnf.clauses) {
    bool sat = false;
    for (Lit l : clause) {
      bool value = (mask >> LitVar(l)) & 1;
      if (value == LitPositive(l)) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

TEST(SatDifferentialTest, BackendsMatchExhaustiveSearchAndEachOther) {
  proptest::Config cfg{/*master_seed=*/0x33cc44dd, /*iterations=*/300,
                       /*max_scale=*/10, /*min_scale=*/1};
  EXPECT_TRUE(proptest::ForAll<CnfCase>(
      cfg, GenCnf, [](const CnfCase& cnf) -> std::string {
        bool oracle_sat = false;
        for (uint64_t mask = 0; mask < (1ull << cnf.num_vars); ++mask) {
          if (AssignmentSatisfies(cnf, mask)) {
            oracle_sat = true;
            break;
          }
        }
        for (const oracles::SatEngine& engine :
             {oracles::kDpll, oracles::kCdcl}) {
          SatSolver solver(cnf.num_vars);
          for (const auto& clause : cnf.clauses) solver.AddClause(clause);
          if (!solver.build_status().ok()) {
            return "build error: " + solver.build_status().ToString();
          }
          Result<SatSolution> got = engine.solve(solver.instance(), {});
          if (!got.ok()) return "solver error: " + got.status().ToString();
          if (got->satisfiable != oracle_sat) {
            return StrFormat(
                "satisfiability disagrees: %s=%d exhaustive=%d (%u vars, "
                "%zu clauses)",
                engine.name, got->satisfiable ? 1 : 0, oracle_sat ? 1 : 0,
                cnf.num_vars, cnf.clauses.size());
          }
          if (got->satisfiable) {
            uint64_t mask = 0;
            for (uint32_t v = 0; v < cnf.num_vars; ++v) {
              if (got->assignment[v]) mask |= 1ull << v;
            }
            if (!AssignmentSatisfies(cnf, mask)) {
              return StrFormat("%s's model does not satisfy the formula",
                               engine.name);
            }
          }
        }
        return "";
      }));
}

// ---------------------------------------------------------------------
// Count-CSP vs SAT cross-encoding (and vs direct multiset enumeration).
// ---------------------------------------------------------------------

struct CspCase {
  size_t num_vars = 0;
  size_t domain = 0;
  struct Count {
    std::vector<bool> match;
    int64_t lo = 0;
    int64_t hi = 0;
  };
  std::vector<Count> counts;
};

CspCase GenCsp(Rng& rng, size_t scale) {
  CspCase c;
  const uint64_t max_vars = 1 + (scale < 4 ? scale : 4);  // <= 5
  c.num_vars = 1 + static_cast<size_t>(rng.UniformUint64(max_vars));
  c.domain = 1 + static_cast<size_t>(rng.UniformUint64(4));
  const size_t m = static_cast<size_t>(rng.UniformUint64(4));
  for (size_t k = 0; k < m; ++k) {
    CspCase::Count count;
    count.match.resize(c.domain);
    for (size_t v = 0; v < c.domain; ++v) count.match[v] = rng.Bernoulli(0.5);
    count.lo = rng.UniformInt(0, static_cast<int64_t>(c.num_vars));
    count.hi = rng.UniformInt(count.lo, static_cast<int64_t>(c.num_vars));
    c.counts.push_back(std::move(count));
  }
  return c;
}

// SAT encoding: one boolean per (variable, value) with exactly-one rows,
// an auxiliary "matches constraint k" literal per variable, and Sinz
// cardinality bounds over the auxiliaries — the same construction
// census::ReconstructBlockSat uses, exercised here against the CSP and
// solved by `engine`.
bool CspSatisfiableViaSat(const CspCase& c, const oracles::SatEngine& engine,
                          std::string* error) {
  SatSolver solver(static_cast<uint32_t>(c.num_vars * c.domain));
  auto x = [&](size_t var, size_t val) {
    return MakeLit(static_cast<uint32_t>(var * c.domain + val), true);
  };
  for (size_t i = 0; i < c.num_vars; ++i) {
    std::vector<Lit> row;
    for (size_t v = 0; v < c.domain; ++v) row.push_back(x(i, v));
    solver.AddExactlyOne(row);
  }
  for (const CspCase::Count& count : c.counts) {
    std::vector<Lit> ys;
    for (size_t i = 0; i < c.num_vars; ++i) {
      Lit y = MakeLit(solver.NewVariable(), true);
      // y <-> OR_{v in mask} x(i, v).
      std::vector<Lit> forward{LitNegate(y)};
      for (size_t v = 0; v < c.domain; ++v) {
        if (!count.match[v]) continue;
        forward.push_back(x(i, v));
        solver.AddBinary(LitNegate(x(i, v)), y);
      }
      solver.AddClause(forward);
      ys.push_back(y);
    }
    solver.AddAtMostK(ys, static_cast<size_t>(count.hi));
    solver.AddAtLeastK(ys, static_cast<size_t>(count.lo));
  }
  if (!solver.build_status().ok()) {
    *error = "SAT encoding error: " + solver.build_status().ToString();
    return false;
  }
  Result<SatSolution> got = engine.solve(solver.instance(), {});
  if (!got.ok()) {
    *error = "SAT encoding error: " + got.status().ToString();
    return false;
  }
  return got->satisfiable;
}

// Direct enumeration of non-decreasing value sequences (the CSP's own
// solution space), independent of its pruning logic.
size_t BruteForceCspSolutions(const CspCase& c) {
  size_t found = 0;
  std::vector<size_t> seq(c.num_vars, 0);
  auto visit = [&](auto&& self, size_t depth, size_t min_val) -> void {
    if (depth == c.num_vars) {
      for (const CspCase::Count& count : c.counts) {
        int64_t matched = 0;
        for (size_t v : seq) matched += count.match[v] ? 1 : 0;
        if (matched < count.lo || matched > count.hi) return;
      }
      ++found;
      return;
    }
    for (size_t v = min_val; v < c.domain; ++v) {
      seq[depth] = v;
      self(self, depth + 1, v);
    }
  };
  visit(visit, 0, 0);
  return found;
}

TEST(CspDifferentialTest, CspMatchesSatCrossEncodingAndBruteForce) {
  proptest::Config cfg{/*master_seed=*/0x55ee66ff, /*iterations=*/250,
                       /*max_scale=*/4, /*min_scale=*/1};
  EXPECT_TRUE(proptest::ForAll<CspCase>(
      cfg, GenCsp, [](const CspCase& c) -> std::string {
        CountCsp csp(c.num_vars, c.domain);
        for (const CspCase::Count& count : c.counts) {
          csp.AddCountConstraint(count.match, count.lo, count.hi);
        }
        if (!csp.build_status().ok()) {
          return "CSP build error: " + csp.build_status().ToString();
        }
        CspStats stats;
        std::vector<std::vector<size_t>> sols =
            csp.Enumerate(/*max_solutions=*/100000, /*max_nodes=*/1000000,
                          &stats);
        if (!stats.complete) return "CSP search hit a cap unexpectedly";

        size_t brute = BruteForceCspSolutions(c);
        if (sols.size() != brute) {
          return StrFormat(
              "solution count disagrees: csp=%zu brute-force=%zu (%zu "
              "vars, domain %zu, %zu constraints)",
              sols.size(), brute, c.num_vars, c.domain, c.counts.size());
        }

        for (const oracles::SatEngine& engine :
             {oracles::kDpll, oracles::kCdcl}) {
          std::string sat_error;
          bool sat = CspSatisfiableViaSat(c, engine, &sat_error);
          if (!sat_error.empty()) return sat_error;
          if (sat != !sols.empty()) {
            return StrFormat(
                "satisfiability disagrees: sat-encoding(%s)=%d csp=%d",
                engine.name, sat ? 1 : 0, sols.empty() ? 0 : 1);
          }
        }
        return "";
      }));
}

}  // namespace
}  // namespace pso
