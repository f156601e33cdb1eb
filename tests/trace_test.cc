// Tests for the hierarchical trace collector (common/trace.h): span
// nesting, parent propagation into ParallelFor workers, Chrome-JSON
// well-formedness, the determinism of the text-tree export across thread
// counts, spans recording their histograms with tracing on or off, and
// the LP/SAT solver instants with their per-solve cap.

#include "common/trace.h"

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "recon/attacks.h"
#include "recon/oracle.h"
#include "solver/lp.h"
#include "solver/sat.h"

namespace pso {
namespace {

using trace::Collector;
using trace::Event;

// RAII enable/disable so a failing test cannot leak tracing into others.
struct ScopedTracing {
  explicit ScopedTracing(size_t capacity = Collector::kDefaultCapacity) {
    Collector::Global().Enable(capacity);
  }
  ~ScopedTracing() { Collector::Global().Disable(); }
};

const Event* FindSpan(const std::vector<Event>& events,
                      const std::string& name) {
  for (const Event& e : events) {
    if (e.kind == Event::Kind::kSpan && e.name == name) return &e;
  }
  return nullptr;
}

TEST(TraceTest, DisabledRecordsNothing) {
  Collector::Global().Disable();
  Collector::Global().Clear();
  {
    trace::Span span("should.not.appear");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.id(), 0u);
    trace::Instant("neither.this");
  }
  EXPECT_TRUE(Collector::Global().TakeEvents().empty());
}

TEST(TraceTest, NestedSpansLinkParentToChild) {
  ScopedTracing tracing;
  {
    trace::Span outer("outer");
    ASSERT_TRUE(outer.active());
    {
      trace::Span inner("inner");
      ASSERT_TRUE(inner.active());
      trace::Span leaf("leaf");
    }
  }
  std::vector<Event> events = Collector::Global().TakeEvents();
  const Event* outer = FindSpan(events, "outer");
  const Event* inner = FindSpan(events, "inner");
  const Event* leaf = FindSpan(events, "leaf");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_EQ(leaf->parent, inner->id);
  EXPECT_GE(outer->dur_ns, inner->dur_ns);
}

TEST(TraceTest, InstantsAttachToCurrentSpan) {
  ScopedTracing tracing;
  {
    trace::Span span("holder");
    trace::Instant("tick", {{"k", "v"}});
  }
  std::vector<Event> events = Collector::Global().TakeEvents();
  const Event* holder = FindSpan(events, "holder");
  ASSERT_NE(holder, nullptr);
  bool saw_instant = false;
  for (const Event& e : events) {
    if (e.kind == Event::Kind::kInstant && e.name == "tick") {
      saw_instant = true;
      EXPECT_EQ(e.parent, holder->id);
      ASSERT_EQ(e.args.size(), 1u);
      EXPECT_EQ(e.args[0].first, "k");
      EXPECT_EQ(e.args[0].second, "v");
    }
  }
  EXPECT_TRUE(saw_instant);
}

TEST(TraceTest, ParallelForChunksNestUnderRegionSpan) {
  ScopedTracing tracing;
  ThreadPool pool(4);
  {
    trace::Span pipeline("pipeline");
    ParallelFor(&pool, 64, [&](size_t begin, size_t end) {
      trace::Span chunk("chunk");
      for (size_t i = begin; i < end; ++i) {
      }
    });
  }
  std::vector<Event> events = Collector::Global().TakeEvents();
  const Event* pipeline = FindSpan(events, "pipeline");
  const Event* region = FindSpan(events, "parallel.for");
  ASSERT_NE(pipeline, nullptr);
  ASSERT_NE(region, nullptr);
  EXPECT_EQ(region->parent, pipeline->id);
  size_t chunks = 0;
  for (const Event& e : events) {
    if (e.kind == Event::Kind::kSpan && e.name == "chunk") {
      ++chunks;
      // Worker-thread chunk spans must nest under the region span even
      // though they ran on different threads.
      EXPECT_EQ(e.parent, region->id);
    }
  }
  EXPECT_GT(chunks, 0u);
}

// Minimal recursive-descent JSON validator — enough to prove the export
// is well-formed without a JSON library.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) return true;
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Expect(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek('}')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek(']')) return true;
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(']')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool String() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    return Expect('"');
  }
  bool Number() {
    size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Expect(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(TraceTest, ChromeJsonIsWellFormed) {
  ScopedTracing tracing;
  ThreadPool pool(4);
  {
    trace::Span span("outer \"quoted\" name");
    span.Arg("note", "value with \\ and \"quotes\" and\nnewline");
    trace::Instant("mark", {{"x", "1"}});
    ParallelFor(&pool, 16, [&](size_t, size_t) {});
  }
  std::string json = Collector::Global().ChromeJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

// The deterministic workload: a pipeline span over a ParallelFor whose
// chunks open their own spans and emit instants. The logical tree does
// not depend on the thread count.
void RunDeterministicWorkload(ThreadPool* pool) {
  trace::Span pipeline("workload");
  ParallelFor(pool, 96, [&](size_t begin, size_t end) {
    trace::Span chunk("chunk");
    for (size_t i = begin; i < end; ++i) {
      trace::Instant("item");
    }
  });
}

TEST(TraceTest, TextTreeIsByteIdenticalAcrossThreadCounts) {
  std::string tree_serial;
  {
    ScopedTracing tracing;
    RunDeterministicWorkload(nullptr);
    tree_serial = Collector::Global().TextTree();
  }
  std::string tree_parallel;
  {
    ScopedTracing tracing;
    ThreadPool pool(8);
    RunDeterministicWorkload(&pool);
    tree_parallel = Collector::Global().TextTree();
  }
  EXPECT_EQ(tree_serial, tree_parallel);
  EXPECT_NE(tree_serial.find("workload"), std::string::npos);
  EXPECT_NE(tree_serial.find("chunk"), std::string::npos);
}

// Event counts of the global histograms the deterministic workload's
// spans record into.
std::map<std::string, uint64_t> WorkloadSpanCounts() {
  std::map<std::string, uint64_t> counts;
  for (const char* name : {"workload", "chunk", "parallel.for"}) {
    counts[name] = metrics::GetHistogram(name).count();
  }
  return counts;
}

TEST(TraceTest, SpanHistogramCountsMatchAcrossThreadCounts) {
  Collector::Global().Disable();
  auto delta = [](ThreadPool* pool) {
    std::map<std::string, uint64_t> before = WorkloadSpanCounts();
    RunDeterministicWorkload(pool);
    std::map<std::string, uint64_t> after = WorkloadSpanCounts();
    for (auto& [name, count] : after) count -= before[name];
    return after;
  };
  const std::map<std::string, uint64_t> serial = delta(nullptr);
  ThreadPool pool(8);
  EXPECT_EQ(serial, delta(&pool));
  EXPECT_EQ(serial.at("workload"), 1u);
  EXPECT_EQ(serial.at("parallel.for"), 1u);
  EXPECT_EQ(serial.at("chunk"), NumChunks(96));
}

TEST(TraceTest, SpanRecordsHistogramWithTracingOff) {
  Collector::Global().Disable();
  Collector::Global().Clear();
  metrics::Registry reg;
  metrics::Histogram& hist = reg.GetHistogram("untraced");
  {
    trace::Span span("untraced", hist);
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(hist.count(), 1u);
  // The by-name form records into the global histogram of that name.
  metrics::Histogram& global = metrics::GetHistogram("trace_test.untraced");
  const uint64_t before = global.count();
  { trace::Span span("trace_test.untraced"); }
  EXPECT_EQ(global.count(), before + 1);
  EXPECT_TRUE(Collector::Global().TakeEvents().empty());
}

TEST(TraceTest, SpanEventAndHistogramShareOneClockPair) {
  ScopedTracing tracing;
  metrics::Registry reg;
  metrics::Histogram& hist = reg.GetHistogram("timed");
  {
    trace::Span span("timed", hist);
    ASSERT_TRUE(span.active());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const std::vector<Event> events = Collector::Global().TakeEvents();
  const Event* timed = FindSpan(events, "timed");
  ASSERT_NE(timed, nullptr);
  ASSERT_EQ(hist.count(), 1u);
  // The histogram stores seconds as fixed-point nanoseconds; converting
  // the same dur_ns there and back may truncate by at most 1 ns.
  const uint64_t sum_ns = hist.sum_fp();
  EXPECT_LE(sum_ns, timed->dur_ns);
  EXPECT_LE(timed->dur_ns - sum_ns, 1u);
  EXPECT_GT(timed->dur_ns, 0u);
}

// A small LP whose solve needs at least one pivot: minimize -x - y
// subject to x + y <= 1, x, y in [0, 1].
Result<LpSolution> SolveSmallLp() {
  LpProblem lp;
  size_t x = lp.AddVariable(0.0, 1.0, -1.0);
  size_t y = lp.AddVariable(0.0, 1.0, -1.0);
  lp.AddConstraint({{x, 1.0}, {y, 1.0}}, Relation::kLessEq, 1.0);
  return lp.Solve();
}

// Number of instants named `name` among `events`.
size_t CountInstants(const std::vector<Event>& events,
                     const std::string& name) {
  size_t n = 0;
  for (const Event& e : events) {
    if (e.kind == Event::Kind::kInstant && e.name == name) ++n;
  }
  return n;
}

TEST(TraceTest, LpSolveSpanTreeAndPivotInstants) {
  ScopedTracing tracing;
  auto solved = SolveSmallLp();
  ASSERT_TRUE(solved.ok());
  ASSERT_GT(solved->iterations, 0u);
  // The span tree shows the phase pair under lp.solve.
  std::vector<Event> events = Collector::Global().TakeEvents();
  const Event* solve = FindSpan(events, "lp.solve");
  const Event* phase1 = FindSpan(events, "lp.phase1");
  const Event* phase2 = FindSpan(events, "lp.phase2");
  ASSERT_NE(solve, nullptr);
  ASSERT_NE(phase1, nullptr);
  ASSERT_NE(phase2, nullptr);
  EXPECT_EQ(phase1->parent, solve->id);
  EXPECT_EQ(phase2->parent, solve->id);
  // One lp.pivot instant per pivot, each under a phase span.
  EXPECT_EQ(CountInstants(events, "lp.pivot"), solved->iterations);
  for (const Event& e : events) {
    if (e.kind == Event::Kind::kInstant && e.name == "lp.pivot") {
      EXPECT_TRUE(e.parent == phase1->id || e.parent == phase2->id);
    }
  }
}

TEST(TraceTest, SatSolveSpanCarriesDecisionInstants) {
  ScopedTracing tracing;
  SatSolver solver(3);
  solver.AddClause({MakeLit(0, true), MakeLit(1, true)});
  solver.AddClause({MakeLit(0, false), MakeLit(2, true)});
  solver.AddClause({MakeLit(1, false), MakeLit(2, false)});
  auto solved = solver.Solve();
  ASSERT_TRUE(solved.ok());
  ASSERT_TRUE(solved->satisfiable);
  ASSERT_GT(solved->decisions, 0u);
  std::vector<Event> events = Collector::Global().TakeEvents();
  const Event* solve = FindSpan(events, "sat.solve");
  ASSERT_NE(solve, nullptr);
  EXPECT_EQ(CountInstants(events, "sat.decision"), solved->decisions);
  for (const Event& e : events) {
    if (e.kind == Event::Kind::kInstant && e.name == "sat.decision") {
      EXPECT_EQ(e.parent, solve->id);
    }
  }
}

// Pigeonhole: `pigeons` pigeons into pigeons - 1 holes, UNSAT, with no
// unit clauses.
SatSolver Pigeonhole(uint32_t pigeons) {
  const uint32_t holes = pigeons - 1;
  SatSolver solver(pigeons * holes);
  for (uint32_t p = 0; p < pigeons; ++p) {
    std::vector<Lit> somewhere;
    for (uint32_t h = 0; h < holes; ++h) {
      somewhere.push_back(MakeLit(p * holes + h, true));
    }
    solver.AddClause(somewhere);
  }
  for (uint32_t h = 0; h < holes; ++h) {
    for (uint32_t p1 = 0; p1 < pigeons; ++p1) {
      for (uint32_t p2 = p1 + 1; p2 < pigeons; ++p2) {
        solver.AddBinary(MakeLit(p1 * holes + h, false),
                         MakeLit(p2 * holes + h, false));
      }
    }
  }
  return solver;
}

// A traced solve emits at most 256 instants of each solver instant name,
// however long the search runs.
TEST(TraceTest, SolverInstantsCappedPerSolve) {
  // A production-shaped decode: the n-row dual LP of a noisy n = 128
  // transcript (5n queries, noise bound sqrt(n)), over 1,000 pivots.
  {
    const size_t n = 128;
    Rng rng(1);
    recon::BoundedNoiseOracle oracle(recon::RandomBits(n, rng),
                                     std::sqrt(static_cast<double>(n)),
                                     /*seed=*/2);
    ScopedTracing tracing;
    const uint64_t pivots = metrics::GetCounter("lp.pivots").value();
    Result<recon::Reconstruction> r = recon::LpReconstruct(oracle, 5 * n, rng);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_GT(metrics::GetCounter("lp.pivots").value() - pivots, 1000u);
    EXPECT_EQ(CountInstants(Collector::Global().TakeEvents(), "lp.pivot"),
              256u);
  }
  {
    ScopedTracing tracing;
    SatSolver solver = Pigeonhole(8);
    Result<SatSolution> sol = solver.Solve();
    ASSERT_TRUE(sol.ok()) << sol.status().ToString();
    EXPECT_FALSE(sol->satisfiable);
    ASSERT_GT(sol->conflicts, 256u);
    EXPECT_EQ(
        CountInstants(Collector::Global().TakeEvents(), "sat.conflict"),
        256u);
  }
}

TEST(TraceTest, DroppedEventsAreCounted) {
  ScopedTracing tracing(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) trace::Instant("burst");
  EXPECT_EQ(Collector::Global().TakeEvents().size(), 4u);
  EXPECT_EQ(Collector::Global().dropped(), 6u);
}

}  // namespace
}  // namespace pso
