// Binary LP-instance codec: round-trip property, every decoder
// rejection path, the solver-facing build_status contract, and the
// pinned worst-case instance under tests/data/.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "proptest.h"
#include "solver/lp.h"
#include "solver/lp_io.h"

namespace pso {
namespace {

LpInstance SampleInstance() {
  LpInstance inst;
  inst.variables.push_back({0.0, 1.0, 2.0});
  inst.variables.push_back({-1.0, LpProblem::kInfinity, -0.5});
  LpInstance::Row row;
  row.coeffs = {{0, 1.0}, {1, 2.0}};
  row.rel = Relation::kGreaterEq;
  row.rhs = 0.5;
  inst.rows.push_back(row);
  return inst;
}

TEST(LpIoTest, EncodeDecodeRoundTripsSample) {
  LpInstance inst = SampleInstance();
  Result<LpInstance> again = DecodeLpInstance(EncodeLpInstance(inst));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_EQ(again->variables.size(), 2u);
  EXPECT_EQ(again->variables[1].lower, -1.0);
  EXPECT_TRUE(std::isinf(again->variables[1].upper));
  ASSERT_EQ(again->rows.size(), 1u);
  EXPECT_EQ(again->rows[0].rel, Relation::kGreaterEq);
  EXPECT_EQ(again->rows[0].coeffs, inst.rows[0].coeffs);
}

TEST(LpIoTest, DecodedInstanceSolves) {
  // min 2a - b/2  s.t.  a + 2b >= 1/2, a in [0,1], b in [-1, 2].
  LpInstance inst;
  inst.variables.push_back({0.0, 1.0, 2.0});
  inst.variables.push_back({-1.0, 2.0, -0.5});
  inst.rows.push_back({{{0, 1.0}, {1, 2.0}}, Relation::kGreaterEq, 0.5});
  Result<LpInstance> decoded = DecodeLpInstance(EncodeLpInstance(inst));
  ASSERT_TRUE(decoded.ok());
  LpProblem lp = decoded->ToProblem();
  EXPECT_TRUE(lp.build_status().ok());
  Result<LpSolution> sol = lp.Solve();
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_NEAR(sol->objective, 2.0 * 0.0 - 0.5 * 2.0, 1e-9);
}

// Reads a saved instance from tests/data/ ("" when it is missing).
std::string FetchFixture(const std::string& name) {
  std::ifstream in(std::string(PSO_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// The pinned worst case: the decode LP of
//   psoctl recon --decoder lp --n 64 --queries 320 --alpha 0 --seed 1
// (the model LpDecodeRecorded builds from that run's secret and queries),
// saved with EncodeLpInstance. Exact answers put the optimum on a
// massively degenerate vertex, where Bland's rule alone needed over a
// hundred thousand pivots; the solve must stay within 8 pivots per row.
TEST(LpIoFixtureTest, PinnedExactDecodeSolvesWithinEightPivotsPerRow) {
  const std::string bytes = FetchFixture("recon_exact_n64_seed1.psolp");
  ASSERT_FALSE(bytes.empty()) << "fixture missing from " PSO_TEST_DATA_DIR;
  Result<LpInstance> inst = DecodeLpInstance(bytes);
  ASSERT_TRUE(inst.ok()) << inst.status().ToString();
  ASSERT_EQ(inst->rows.size(), 320u);
  ASSERT_EQ(inst->variables.size(), 64u + 2 * 320u);
  Result<LpSolution> sol = inst->ToProblem().Solve();
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_LE(sol->objective, 1e-6);
  EXPECT_LE(sol->iterations, 8 * inst->rows.size());
}

TEST(LpIoTest, RejectsBadMagicAndTruncation) {
  std::string good = EncodeLpInstance(SampleInstance());

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeLpInstance(bad_magic).ok());

  // Every proper prefix must be rejected as truncated, never crash.
  for (size_t len = 0; len < good.size(); ++len) {
    Result<LpInstance> r = DecodeLpInstance(good.substr(0, len));
    EXPECT_FALSE(r.ok()) << "accepted a " << len << "-byte prefix";
  }

  std::string trailing = good + "junk";
  EXPECT_FALSE(DecodeLpInstance(trailing).ok());
}

TEST(LpIoTest, RejectsSemanticGarbage) {
  // NaN cost.
  LpInstance nan_cost = SampleInstance();
  nan_cost.variables[0].cost = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(DecodeLpInstance(EncodeLpInstance(nan_cost)).ok());

  // Empty bounds.
  LpInstance empty_bounds = SampleInstance();
  empty_bounds.variables[0].lower = 2.0;
  empty_bounds.variables[0].upper = 1.0;
  EXPECT_FALSE(DecodeLpInstance(EncodeLpInstance(empty_bounds)).ok());

  // Out-of-range coefficient index.
  LpInstance bad_index = SampleInstance();
  bad_index.rows[0].coeffs[0].first = 7;
  EXPECT_FALSE(DecodeLpInstance(EncodeLpInstance(bad_index)).ok());

  // Cap violation in the header.
  std::string oversized("PSOLP1", 6);
  uint32_t vars = kLpInstanceMaxVars + 1;
  uint32_t rows = 0;
  oversized.append(reinterpret_cast<const char*>(&vars), 4);
  oversized.append(reinterpret_cast<const char*>(&rows), 4);
  EXPECT_FALSE(DecodeLpInstance(oversized).ok());
}

TEST(LpIoTest, MalformedBuilderInputPoisonsSolveWithStatus) {
  LpProblem lp;
  lp.AddVariable(1.0, 0.0, 0.0);  // empty bounds
  EXPECT_FALSE(lp.build_status().ok());
  Result<LpSolution> sol = lp.Solve();
  ASSERT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kInvalidArgument);

  LpProblem lp2;
  size_t x = lp2.AddVariable(0.0, 1.0, 1.0);
  lp2.AddConstraint({{x + 5, 1.0}}, Relation::kLessEq, 1.0);  // unknown var
  EXPECT_FALSE(lp2.Solve().ok());
}

// Round-trip property on random well-formed instances (pinned seeds).
TEST(LpIoRoundTripTest, EncodeThenDecodeIsIdentity) {
  proptest::Config cfg{/*master_seed=*/0xabc123, /*iterations=*/150,
                       /*max_scale=*/8, /*min_scale=*/1};
  EXPECT_TRUE(proptest::ForAll<LpInstance>(
      cfg,
      [](Rng& rng, size_t scale) {
        LpInstance inst;
        size_t n = 1 + static_cast<size_t>(rng.UniformUint64(2 * scale));
        for (size_t i = 0; i < n; ++i) {
          LpInstance::Variable v;
          v.lower = rng.UniformDouble() * 10 - 5;
          v.upper = rng.Bernoulli(0.2)
                        ? LpProblem::kInfinity
                        : v.lower + rng.UniformDouble() * 10;
          v.cost = rng.UniformDouble() * 4 - 2;
          inst.variables.push_back(v);
        }
        size_t m = static_cast<size_t>(rng.UniformUint64(scale + 1));
        for (size_t r = 0; r < m; ++r) {
          LpInstance::Row row;
          for (size_t i = 0; i < n; ++i) {
            if (rng.Bernoulli(0.5)) {
              row.coeffs.emplace_back(i, rng.UniformDouble() * 6 - 3);
            }
          }
          row.rel = static_cast<Relation>(rng.UniformUint64(3));
          row.rhs = rng.UniformDouble() * 8 - 4;
          inst.rows.push_back(std::move(row));
        }
        return inst;
      },
      [](const LpInstance& inst) -> std::string {
        Result<LpInstance> again = DecodeLpInstance(EncodeLpInstance(inst));
        if (!again.ok()) {
          return "round trip rejected: " + again.status().ToString();
        }
        if (again->variables.size() != inst.variables.size() ||
            again->rows.size() != inst.rows.size()) {
          return "round trip changed the shape";
        }
        for (size_t i = 0; i < inst.variables.size(); ++i) {
          if (std::memcmp(&again->variables[i], &inst.variables[i],
                          sizeof(LpInstance::Variable)) != 0) {
            return "round trip changed a variable";
          }
        }
        for (size_t r = 0; r < inst.rows.size(); ++r) {
          if (again->rows[r].rel != inst.rows[r].rel ||
              again->rows[r].rhs != inst.rows[r].rhs ||
              again->rows[r].coeffs != inst.rows[r].coeffs) {
            return "round trip changed a row";
          }
        }
        return "";
      }));
}

}  // namespace
}  // namespace pso
