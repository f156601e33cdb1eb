// Tests for the hierarchical trace collector (common/trace.h): span
// nesting, parent propagation into ParallelFor workers, Chrome-JSON
// well-formedness, the determinism of the text-tree export across thread
// counts, ring-buffer semantics, and the LP/SAT introspection traces.

#include "common/trace.h"

#include <cctype>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "oracles/oracles.h"
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

std::map<uint64_t, Event> SpansById(const std::vector<Event>& events) {
  std::map<uint64_t, Event> out;
  for (const Event& e : events) {
    if (e.kind == Event::Kind::kSpan) out[e.id] = e;
  }
  return out;
}

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
    trace::CounterSample("nor.this", 1.0);
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

TEST(TraceTest, InstantsAndCountersAttachToCurrentSpan) {
  ScopedTracing tracing;
  {
    trace::Span span("holder");
    trace::Instant("tick", {{"k", "v"}});
    trace::CounterSample("gauge", 42.5);
  }
  std::vector<Event> events = Collector::Global().TakeEvents();
  const Event* holder = FindSpan(events, "holder");
  ASSERT_NE(holder, nullptr);
  bool saw_instant = false;
  bool saw_counter = false;
  for (const Event& e : events) {
    if (e.kind == Event::Kind::kInstant && e.name == "tick") {
      saw_instant = true;
      EXPECT_EQ(e.parent, holder->id);
      ASSERT_EQ(e.args.size(), 1u);
      EXPECT_EQ(e.args[0].first, "k");
      EXPECT_EQ(e.args[0].second, "v");
    }
    if (e.kind == Event::Kind::kCounter && e.name == "gauge") {
      saw_counter = true;
      EXPECT_EQ(e.parent, holder->id);
      EXPECT_DOUBLE_EQ(e.value, 42.5);
    }
  }
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_counter);
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
    trace::CounterSample("c", -0.5);
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

TEST(TraceTest, RingBufferKeepsMostRecent) {
  trace::RingBuffer<int> ring(3);
  for (int i = 1; i <= 5; ++i) ring.Push(i);
  EXPECT_EQ(ring.total(), 5u);
  EXPECT_EQ(ring.size(), 3u);
  std::vector<int> kept = ring.Drain();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0], 3);
  EXPECT_EQ(kept[1], 4);
  EXPECT_EQ(kept[2], 5);
}

TEST(TraceTest, RingBufferUnderCapacity) {
  trace::RingBuffer<int> ring(8);
  ring.Push(7);
  ring.Push(9);
  std::vector<int> kept = ring.Drain();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0], 7);
  EXPECT_EQ(kept[1], 9);
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

TEST(TraceTest, LpPivotTraceRecordedWhenEnabled) {
  ScopedTracing tracing;
  auto solved = SolveSmallLp();
  ASSERT_TRUE(solved.ok());
  ASSERT_FALSE(solved->pivot_trace.empty());
  EXPECT_EQ(solved->pivot_trace.size(), solved->iterations);
  for (const LpPivotStep& step : solved->pivot_trace) {
    EXPECT_TRUE(step.phase == 1 || step.phase == 2);
  }
  // The span tree shows the phase pair under lp.solve.
  std::vector<Event> events = Collector::Global().TakeEvents();
  auto spans = SpansById(events);
  const Event* solve = FindSpan(events, "lp.solve");
  const Event* phase1 = FindSpan(events, "lp.phase1");
  const Event* phase2 = FindSpan(events, "lp.phase2");
  ASSERT_NE(solve, nullptr);
  ASSERT_NE(phase1, nullptr);
  ASSERT_NE(phase2, nullptr);
  EXPECT_EQ(phase1->parent, solve->id);
  EXPECT_EQ(phase2->parent, solve->id);
  bool saw_pivot_instant = false;
  for (const Event& e : events) {
    if (e.kind == Event::Kind::kInstant && e.name == "lp.pivot") {
      saw_pivot_instant = true;
    }
  }
  EXPECT_TRUE(saw_pivot_instant);
}

TEST(TraceTest, LpPivotTraceEmptyWhenDisabled) {
  Collector::Global().Disable();
  auto solved = SolveSmallLp();
  ASSERT_TRUE(solved.ok());
  EXPECT_TRUE(solved->pivot_trace.empty());
}

TEST(TraceTest, SatStepTraceRecordedWhenEnabled) {
  ScopedTracing tracing;
  SatSolver solver(3);
  solver.AddClause({MakeLit(0, true), MakeLit(1, true)});
  solver.AddClause({MakeLit(0, false), MakeLit(2, true)});
  solver.AddClause({MakeLit(1, false), MakeLit(2, false)});
  auto solved = solver.Solve();
  ASSERT_TRUE(solved.ok());
  ASSERT_TRUE(solved->satisfiable);
  ASSERT_FALSE(solved->step_trace.empty());
  size_t decisions = 0;
  size_t propagations = 0;
  for (const SatStep& step : solved->step_trace) {
    if (step.kind == SatStep::Kind::kDecision) ++decisions;
    if (step.kind == SatStep::Kind::kPropagation) ++propagations;
  }
  EXPECT_EQ(decisions, solved->decisions);
  EXPECT_EQ(propagations, solved->propagations);
  const Event* solve =
      FindSpan(Collector::Global().TakeEvents(), "sat.solve");
  ASSERT_NE(solve, nullptr);
}

TEST(TraceTest, SatStepTrailDepthConvention) {
  // Pins the SatStep::trail_depth convention documented in sat.h for
  // BOTH the CDCL engine and its DPLL oracle: decisions and propagations
  // record the trail length immediately before their own assignment
  // lands; a backtrack records the post-unwind length. Replaying the
  // trace with a simulated trail length must therefore match every
  // recorded depth. DPLL's backtrack step carries the chronological flip
  // (one assignment lands as part of the step); CDCL's backjump is a pure
  // unwind whose asserting literal arrives as a separate propagation step.
  for (const oracles::SatEngine& engine :
       {oracles::kDpll, oracles::kCdcl}) {
    const std::string name = engine.name;
    ScopedTracing tracing;
    // Pigeonhole 4->3: no unit clauses (the replayed trail starts
    // empty), UNSAT, and small enough that CDCL never restarts.
    const uint32_t pigeons = 4;
    const uint32_t holes = 3;
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
    ASSERT_TRUE(solver.build_status().ok());
    auto solved = engine.solve(solver.instance(), {});
    ASSERT_TRUE(solved.ok());
    EXPECT_FALSE(solved->satisfiable);
    ASSERT_LE(solved->step_trace.size(), kSatStepTraceCapacity)
        << name << ": trace truncation would break the replay";
    size_t trail = 0;
    size_t backtracks_seen = 0;
    for (const SatStep& step : solved->step_trace) {
      switch (step.kind) {
        case SatStep::Kind::kDecision:
        case SatStep::Kind::kPropagation:
          EXPECT_EQ(step.trail_depth, trail)
              << name << ": pre-push depth on var " << step.var;
          ++trail;
          break;
        case SatStep::Kind::kBacktrack:
          ++backtracks_seen;
          EXPECT_LT(step.trail_depth, trail)
              << name << ": a backtrack must shrink the trail";
          trail = step.trail_depth;
          if (name == "dpll") ++trail;  // the flip lands with the step
          break;
      }
    }
    EXPECT_GT(backtracks_seen, 0u) << name;
    Collector::Global().TakeEvents();
  }
}

TEST(TraceTest, SatStepTraceEmptyWhenDisabled) {
  Collector::Global().Disable();
  SatSolver solver(2);
  solver.AddClause({MakeLit(0, true), MakeLit(1, true)});
  auto solved = solver.Solve();
  ASSERT_TRUE(solved.ok());
  EXPECT_TRUE(solved->step_trace.empty());
}

TEST(TraceTest, DroppedEventsAreCounted) {
  ScopedTracing tracing(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) trace::Instant("burst");
  EXPECT_EQ(Collector::Global().TakeEvents().size(), 4u);
  EXPECT_EQ(Collector::Global().dropped(), 6u);
}

}  // namespace
}  // namespace pso
