// Internal: instrumentation plumbing of the LP engine.
//
// Not part of the public solver surface — include only from simplex
// implementations: the revised simplex and the dense-tableau test oracle
// (tests/oracles/). Provides the pivot-trace sink feeding
// LpSolution::pivot_trace plus the common per-solve counter scope, so
// both publish an identical metric vocabulary (lp.solves, lp.pivots,
// lp.pivot_work, per-phase iteration counts) and differ only in their
// implementation-specific counters.

#ifndef PSO_SOLVER_LP_INTERNAL_H_
#define PSO_SOLVER_LP_INTERNAL_H_

#include <string>

#include "common/metrics.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "solver/lp.h"

namespace pso::lp_internal {

// Per-pivot instants emitted into the trace timeline per solve; the ring
// buffer keeps recording past this.
inline constexpr size_t kMaxPivotInstants = 256;

// Pivot-trace sink handed to a simplex pivot loop: a bounded ring of
// audit records plus per-pivot trace instants. Null ring =>
// introspection off, OnPivot costs one branch.
struct PivotSink {
  trace::RingBuffer<LpPivotStep>* ring = nullptr;
  uint8_t phase = 2;
  size_t instants_emitted = 0;

  void OnPivot(size_t iteration, size_t entering, size_t leaving,
               double objective) {
    if (ring == nullptr) return;
    ring->Push(LpPivotStep{phase, iteration, entering, leaving, objective});
    if (instants_emitted < kMaxPivotInstants && trace::Enabled()) {
      ++instants_emitted;
      trace::Instant("lp.pivot",
                     {{"enter", std::to_string(entering)},
                      {"leave", std::to_string(leaving)},
                      {"obj", StrFormat("%.9g", objective)}});
    }
  }
};

// Publishes one solve's shared counters to the global registry on every
// exit path (optimal, infeasible, unbounded, pivot budget). Counters
// are seed-deterministic totals; the wall-clock span is reported
// separately. `pivot_work` is the FLOPs-equivalent tally: the number of
// matrix/vector cells actually touched while pivoting — the revised
// simplex counts traversed nonzeros, the dense oracle full rows x cols —
// so the two are comparable on one axis.
struct SolveScope {
  size_t phase1_iterations = 0;
  size_t total_iterations = 0;
  size_t pivot_work = 0;
  metrics::ScopedSpan span{"lp.solve"};

  ~SolveScope() {
    metrics::GetCounter("lp.solves").Add(1);
    metrics::GetCounter("lp.pivots").Add(total_iterations);
    metrics::GetCounter("lp.phase1_iterations").Add(phase1_iterations);
    metrics::GetCounter("lp.phase2_iterations")
        .Add(total_iterations - phase1_iterations);
    metrics::GetCounter("lp.pivot_work").Add(pivot_work);
  }
};

}  // namespace pso::lp_internal

#endif  // PSO_SOLVER_LP_INTERNAL_H_
