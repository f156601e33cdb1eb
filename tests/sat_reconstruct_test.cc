// Tests for the SAT back-end of the census reconstruction, including
// cross-validation against the CSP engine and the cardinality encodings.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "census/reconstruct.h"
#include "census/sat_reconstruct.h"
#include "oracles/oracles.h"
#include "solver/sat.h"

namespace pso::census {
namespace {

Population SmallPopulation(uint64_t seed, size_t blocks, size_t min_size,
                           size_t max_size) {
  PopulationOptions opts;
  opts.num_blocks = blocks;
  opts.min_block_size = min_size;
  opts.max_block_size = max_size;
  Rng rng(seed);
  return GeneratePopulation(opts, rng);
}

// Multiset equality of record lists.
bool SameMultiset(const std::vector<Record>& a, const Dataset& b) {
  if (a.size() != b.size()) return false;
  std::map<Record, int> counts;
  for (const Record& r : a) ++counts[r];
  for (const Record& r : b.records()) --counts[r];
  for (const auto& [r, c] : counts) {
    if (c != 0) return false;
  }
  return true;
}

// Checks a candidate solution against the exact tables.
bool ConsistentWithTables(const std::vector<Record>& solution,
                          const BlockTables& t) {
  if (static_cast<int64_t>(solution.size()) != t.total) return false;
  std::vector<int64_t> by_age(t.by_age.size(), 0);
  std::vector<int64_t> by_race(6, 0);
  for (const Record& r : solution) {
    ++by_age[static_cast<size_t>(r[kAge])];
    ++by_race[static_cast<size_t>(r[kRace])];
  }
  return by_age == t.by_age && by_race == t.by_race;
}

TEST(SatCardinalityTest, AtMostKEnforced) {
  // 5 literals, at most 2 true, with 3 forced true: UNSAT.
  SatSolver s(5);
  std::vector<Lit> lits;
  for (uint32_t v = 0; v < 5; ++v) lits.push_back(MakeLit(v, true));
  s.AddAtMostK(lits, 2);
  s.AddUnit(lits[0]);
  s.AddUnit(lits[2]);
  s.AddUnit(lits[4]);
  auto sol = s.Solve();
  ASSERT_TRUE(sol.ok());
  EXPECT_FALSE(sol->satisfiable);
}

TEST(SatCardinalityTest, AtMostKSatisfiableAtBound) {
  SatSolver s(5);
  std::vector<Lit> lits;
  for (uint32_t v = 0; v < 5; ++v) lits.push_back(MakeLit(v, true));
  s.AddAtMostK(lits, 2);
  s.AddUnit(lits[1]);
  s.AddUnit(lits[3]);
  auto sol = s.Solve();
  ASSERT_TRUE(sol.ok());
  ASSERT_TRUE(sol->satisfiable);
  int trues = 0;
  for (uint32_t v = 0; v < 5; ++v) trues += sol->assignment[v] ? 1 : 0;
  EXPECT_LE(trues, 2);
}

TEST(SatCardinalityTest, ExactlyKCounts) {
  for (size_t k : {0u, 1u, 3u, 6u}) {
    SatSolver s(6);
    std::vector<Lit> lits;
    for (uint32_t v = 0; v < 6; ++v) lits.push_back(MakeLit(v, true));
    s.AddExactlyK(lits, k);
    auto sol = s.Solve();
    ASSERT_TRUE(sol.ok());
    ASSERT_TRUE(sol->satisfiable) << "k=" << k;
    size_t trues = 0;
    for (uint32_t v = 0; v < 6; ++v) trues += sol->assignment[v] ? 1 : 0;
    EXPECT_EQ(trues, k);
  }
}

TEST(SatCardinalityTest, AtLeastImpossibleIsUnsat) {
  SatSolver s(3);
  std::vector<Lit> lits = {MakeLit(0, true), MakeLit(1, true),
                           MakeLit(2, true)};
  s.AddAtLeastK(lits, 2);
  s.AddUnit(MakeLit(0, false));
  s.AddUnit(MakeLit(1, false));
  auto sol = s.Solve();
  ASSERT_TRUE(sol.ok());
  EXPECT_FALSE(sol->satisfiable);
}

TEST(SatReconstructTest, SolutionConsistentWithTables) {
  Population pop = SmallPopulation(21, 10, 2, 5);
  for (const Block& b : pop.blocks) {
    BlockTables t = Tabulate(b);
    auto sat = ReconstructBlockSat(t, /*max_decisions=*/500000);
    ASSERT_TRUE(sat.ok()) << sat.status().ToString();
    ASSERT_TRUE(sat->satisfiable);
    EXPECT_TRUE(ConsistentWithTables(sat->reconstructed, t));
  }
}

TEST(SatReconstructTest, AgreesWithCspOnUniqueBlocks) {
  Population pop = SmallPopulation(22, 15, 2, 5);
  size_t unique_checked = 0;
  for (const Block& b : pop.blocks) {
    BlockTables t = Tabulate(b);
    BlockReconstruction csp = ReconstructBlock(t, b.persons);
    if (!csp.unique) continue;
    ++unique_checked;
    auto sat = ReconstructBlockSat(t, 500000);
    ASSERT_TRUE(sat.ok());
    ASSERT_TRUE(sat->satisfiable);
    // Unique solution: SAT must return exactly the ground truth multiset.
    EXPECT_TRUE(SameMultiset(sat->reconstructed, b.persons));
  }
  EXPECT_GT(unique_checked, 3u);  // the comparison actually exercised
}

TEST(SatReconstructTest, EmptyBlock) {
  Block empty{0, Dataset{MakeCensusBlockUniverse().schema}, {}};
  BlockTables t = Tabulate(empty);
  auto sat = ReconstructBlockSat(t);
  ASSERT_TRUE(sat.ok());
  EXPECT_TRUE(sat->satisfiable);
  EXPECT_TRUE(sat->reconstructed.empty());
}

TEST(SatReconstructTest, BudgetExhaustionIsFirstClassOutcome) {
  // A starved decision budget must never surface as an error: the
  // reconstruction reports budget_exhausted = true and stays ok().
  Population pop = SmallPopulation(23, 1, 5, 5);
  BlockTables t = Tabulate(pop.blocks[0]);
  auto sat = ReconstructBlockSat(t, /*max_decisions=*/1);
  ASSERT_TRUE(sat.ok()) << sat.status().ToString();
  if (sat->budget_exhausted) {
    EXPECT_TRUE(sat->reconstructed.empty());
    EXPECT_EQ(sat->decisions, 1u);
  } else {
    // Solved within one decision (all units): a complete solution.
    EXPECT_TRUE(sat->satisfiable);
  }
  // The DPLL oracle on the same encoding and budget: out of budget is
  // kResourceExhausted, anything else a decided, table-consistent block.
  BlockSatEncoding encoding = EncodeBlockSat(t);
  SatSolveOptions options;
  options.max_decisions = 1;
  auto dpll = oracles::SolveDpll(encoding.solver.instance(), options);
  if (!dpll.ok()) {
    EXPECT_EQ(dpll.status().code(), StatusCode::kResourceExhausted);
  } else {
    EXPECT_TRUE(dpll->satisfiable);
    EXPECT_TRUE(ConsistentWithTables(encoding.Decode(dpll->assignment), t));
  }
}

TEST(SatReconstructTest, BackendsAgreeBlockwise) {
  // CDCL (through ReconstructBlockSat) and the DPLL oracle on the same
  // census encodings: both produce table-consistent solutions and
  // identical satisfiability.
  Population pop = SmallPopulation(24, 6, 2, 5);
  for (const Block& b : pop.blocks) {
    BlockTables t = Tabulate(b);
    auto cdcl = ReconstructBlockSat(t, 500000);
    BlockSatEncoding encoding = EncodeBlockSat(t);
    SatSolveOptions options;
    options.max_decisions = 500000;
    auto dpll = oracles::SolveDpll(encoding.solver.instance(), options);
    ASSERT_TRUE(dpll.ok()) << dpll.status().ToString();
    ASSERT_TRUE(cdcl.ok());
    ASSERT_FALSE(cdcl->budget_exhausted);
    EXPECT_EQ(dpll->satisfiable, cdcl->satisfiable);
    EXPECT_TRUE(
        ConsistentWithTables(encoding.Decode(dpll->assignment), t));
    EXPECT_TRUE(ConsistentWithTables(cdcl->reconstructed, t));
  }
}

}  // namespace
}  // namespace pso::census
