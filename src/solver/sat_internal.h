// Internals shared by the CDCL engine (cdcl.cc) and the DPLL test oracle
// (tests/oracles/): the tri-state assignment cell, the per-solve trace
// budget, and the scope guard publishing search counters on every exit
// path.

#ifndef PSO_SOLVER_SAT_INTERNAL_H_
#define PSO_SOLVER_SAT_INTERNAL_H_

#include <cstddef>
#include <cstdint>

#include "common/metrics.h"
#include "solver/sat.h"

namespace pso::sat_internal {

/// Tri-state variable assignment.
enum class Assign : int8_t { kUnset = -1, kFalse = 0, kTrue = 1 };

/// Per-solve cap on decision/conflict/restart instants emitted into the
/// trace timeline; the step ring keeps recording past this.
inline constexpr size_t kMaxSatInstants = 256;

/// Search totals a solver accumulates during one solve. The totals are
/// input-deterministic, so the metric registry's sums stay reproducible.
struct SearchStats {
  size_t decisions = 0;
  size_t propagations = 0;
  size_t backtracks = 0;
  size_t conflicts = 0;
  size_t learned_clauses = 0;  ///< CDCL only.
  size_t restarts = 0;         ///< CDCL only.
  size_t backjump_levels = 0;  ///< CDCL only: total levels jumped over.

  /// Copies the shared totals onto a finished solution.
  void CopyTo(SatSolution& out) const {
    out.decisions = decisions;
    out.propagations = propagations;
    out.backtracks = backtracks;
    out.conflicts = conflicts;
    out.learned_clauses = learned_clauses;
    out.restarts = restarts;
  }
};

/// Publishes one solve's counters on destruction (every exit path,
/// including kResourceExhausted). `solves_counter` is the
/// per-solver name, e.g. "sat.cdcl.solves"; the CDCL-only counters are
/// published only when `cdcl` is set, so DPLL solves do not materialize
/// them in the registry.
struct MetricsPublisher {
  const SearchStats* stats;
  const char* solves_counter;
  bool cdcl = false;
  metrics::ScopedSpan span{"sat.solve"};

  ~MetricsPublisher() {
    metrics::GetCounter("sat.solves").Add(1);
    metrics::GetCounter(solves_counter).Add(1);
    metrics::GetCounter("sat.decisions").Add(stats->decisions);
    metrics::GetCounter("sat.propagations").Add(stats->propagations);
    metrics::GetCounter("sat.backtracks").Add(stats->backtracks);
    metrics::GetCounter("sat.conflicts").Add(stats->conflicts);
    if (cdcl) {
      metrics::GetCounter("sat.learned_clauses").Add(stats->learned_clauses);
      metrics::GetCounter("sat.restarts").Add(stats->restarts);
      metrics::GetCounter("sat.backjump_levels").Add(stats->backjump_levels);
    }
  }
};

}  // namespace pso::sat_internal

#endif  // PSO_SOLVER_SAT_INTERNAL_H_
