// Internal: instrumentation plumbing of the LP engine.
//
// Not part of the public solver surface — include only from simplex
// implementations: the revised simplex and the dense-tableau test oracle
// (tests/oracles/). Provides the per-pivot trace instants plus the
// common per-solve counter scope, so both publish an identical metric
// vocabulary (lp.solves, lp.pivots, lp.pivot_work, per-phase iteration
// counts) and differ only in their implementation-specific counters.

#ifndef PSO_SOLVER_LP_INTERNAL_H_
#define PSO_SOLVER_LP_INTERNAL_H_

#include <string>

#include "common/metrics.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "solver/lp.h"

namespace pso::lp_internal {

// Per-pivot instants emitted into the trace timeline per solve.
inline constexpr size_t kMaxPivotInstants = 256;

// Emits one solve's `lp.pivot` trace instants, at most `remaining` of
// them. `objective` is a callable, so a pivot past the cap, or in a solve
// that opened with tracing off, costs one branch.
struct PivotSink {
  size_t remaining = 0;

  template <typename ObjectiveFn>
  void OnPivot(size_t entering, size_t leaving, ObjectiveFn objective) {
    if (remaining == 0) return;
    --remaining;
    trace::Instant("lp.pivot", {{"enter", std::to_string(entering)},
                                {"leave", std::to_string(leaving)},
                                {"obj", StrFormat("%.9g", objective())}});
  }
};

// Publishes one solve's shared counters to the global registry on every
// exit path (optimal, infeasible, unbounded, pivot budget), and owns the
// solve's `lp.solve` span, which the engine annotates through
// `span.active()`/`span.Arg()`. Counters are seed-deterministic totals;
// the span's duration lands in the `lp.solve` histogram. `pivot_work` is
// the FLOPs-equivalent tally: the number of matrix/vector cells actually
// touched while pivoting — the revised simplex counts traversed nonzeros,
// the dense oracle full rows x cols — so the two are comparable on one
// axis. `pivots` emits the solve's pivot instants when tracing was on as
// the span opened.
struct SolveScope {
  size_t phase1_iterations = 0;
  size_t total_iterations = 0;
  size_t pivot_work = 0;
  trace::Span span{"lp.solve"};
  PivotSink pivots{span.active() ? kMaxPivotInstants : 0};

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
