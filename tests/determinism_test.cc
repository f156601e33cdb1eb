// The parallel substrate's headline contract: for a fixed seed, every
// experiment produces bit-for-bit identical results at ANY thread count.
// These tests run the real pipelines at 1, 2, and 8 threads and compare
// exactly (EXPECT_EQ on doubles — no tolerance), plus smoke checks on the
// counter-based stream derivation itself and a pinned-value regression
// guarding the RNG plumbing against accidental reordering.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "census/population.h"
#include "census/reconstruct.h"
#include "census/tabulator.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "data/generators.h"
#include "membership/membership.h"
#include "oracles/oracles.h"
#include "pso/adversaries.h"
#include "pso/game.h"
#include "pso/interactive.h"
#include "pso/mechanisms.h"
#include "solver/lp.h"

namespace pso {
namespace {

// The thread counts every experiment is replayed at. nullptr = serial.
std::vector<std::unique_ptr<ThreadPool>> MakePools() {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);
  pools.push_back(std::make_unique<ThreadPool>(2));
  pools.push_back(std::make_unique<ThreadPool>(8));
  return pools;
}

void ExpectSameEstimator(const BernoulliEstimator& a,
                         const BernoulliEstimator& b, const char* what) {
  EXPECT_EQ(a.trials(), b.trials()) << what;
  EXPECT_EQ(a.successes(), b.successes()) << what;
}

void ExpectSameStats(const RunningStats& a, const RunningStats& b,
                     const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  // Bit-for-bit: merges happen in chunk-index order with chunk boundaries
  // that depend only on n, so even floating-point accumulation is exact.
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.variance(), b.variance()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
}

void ExpectSameGameResult(const PsoGameResult& a, const PsoGameResult& b) {
  ExpectSameEstimator(a.isolation, b.isolation, "isolation");
  ExpectSameEstimator(a.pso_success, b.pso_success, "pso_success");
  ExpectSameEstimator(a.weight_ok, b.weight_ok, "weight_ok");
  ExpectSameStats(a.weights, b.weights, "weights");
  EXPECT_EQ(a.baseline, b.baseline);
  EXPECT_EQ(a.advantage, b.advantage);
}

TEST(DeterminismTest, PsoGameIdenticalAcrossThreadCounts) {
  Universe u = MakeGicMedicalUniverse(100);
  auto q = MakeAttributeEquals(3, 0, "sex");
  auto mech = MakeCountMechanism(q, "sex=F");
  auto adv = MakeCountTunedAdversary(q, "sex=F");

  auto pools = MakePools();
  std::vector<PsoGameResult> results;
  for (const auto& pool : pools) {
    PsoGameOptions opts;
    opts.trials = 60;
    opts.weight_pool = 20000;
    opts.seed = 0xD17E;
    opts.pool = pool.get();
    PsoGame game(u.distribution, 200, opts);
    results.push_back(game.Run(*mech, *adv));
  }
  ExpectSameGameResult(results[0], results[1]);
  ExpectSameGameResult(results[0], results[2]);
}

TEST(DeterminismTest, InteractiveGameIdenticalAcrossThreadCounts) {
  Universe u = MakeGicMedicalUniverse(100);
  auto mech = MakeExactCountSessionMechanism();
  auto adv = MakeBinarySearchIsolationAdversary(120);

  auto pools = MakePools();
  std::vector<PsoGameResult> results;
  for (const auto& pool : pools) {
    PsoGameOptions opts;
    opts.trials = 20;
    opts.weight_pool = 20000;
    opts.seed = 0x5E55;
    opts.pool = pool.get();
    PsoGame game(u.distribution, 150, opts);
    results.push_back(game.RunInteractive(*mech, *adv));
  }
  ExpectSameGameResult(results[0], results[1]);
  ExpectSameGameResult(results[0], results[2]);
}

TEST(DeterminismTest, CensusReconstructionIdenticalAcrossThreadCounts) {
  census::PopulationOptions popts;
  popts.num_blocks = 40;
  popts.min_block_size = 2;
  popts.max_block_size = 7;
  Rng rng(0xCE25);
  census::Population pop = census::GeneratePopulation(popts, rng);
  std::vector<census::BlockTables> tables;
  tables.reserve(pop.blocks.size());
  for (const auto& b : pop.blocks) tables.push_back(census::Tabulate(b));

  auto pools = MakePools();
  std::vector<census::ReconstructionReport> reports;
  std::vector<std::vector<census::BlockReconstruction>> blocks;
  for (const auto& pool : pools) {
    census::ReconstructOptions ropts;
    ropts.pool = pool.get();
    std::vector<census::BlockReconstruction> per_block;
    reports.push_back(
        census::ReconstructPopulation(pop, tables, ropts, &per_block));
    blocks.push_back(std::move(per_block));
  }
  for (size_t v = 1; v < reports.size(); ++v) {
    EXPECT_EQ(reports[0].blocks_unique, reports[v].blocks_unique);
    EXPECT_EQ(reports[0].blocks_exhausted, reports[v].blocks_exhausted);
    EXPECT_EQ(reports[0].persons_exactly_reconstructed,
              reports[v].persons_exactly_reconstructed);
    ASSERT_EQ(blocks[0].size(), blocks[v].size());
    for (size_t b = 0; b < blocks[0].size(); ++b) {
      EXPECT_EQ(blocks[0][b].solutions_found, blocks[v][b].solutions_found);
      EXPECT_EQ(blocks[0][b].reconstructed, blocks[v][b].reconstructed)
          << "block " << b;
    }
  }
}

TEST(DeterminismTest, MembershipExperimentIdenticalAcrossThreadCounts) {
  Universe u = MakeGenotypeUniverse(100, /*freq_seed=*/45);
  auto pools = MakePools();
  std::vector<membership::MembershipResult> results;
  for (const auto& pool : pools) {
    membership::MembershipOptions opts;
    opts.pool_size = 30;
    opts.trials = 50;
    opts.pool = pool.get();
    results.push_back(membership::RunMembershipExperiment(u, opts));
  }
  for (size_t v = 1; v < results.size(); ++v) {
    EXPECT_EQ(results[0].auc, results[v].auc);
    EXPECT_EQ(results[0].advantage, results[v].advantage);
    EXPECT_EQ(results[0].mean_in, results[v].mean_in);
    EXPECT_EQ(results[0].mean_out, results[v].mean_out);
  }
}

// ---------------------------------------------------------------------
// LP determinism: the revised simplex keeps no global mutable
// state, so the same instance must produce bit-identical pivot counts and
// solution vectors whether solved serially, concurrently on a pool, or
// repeatedly from a warm-start basis.
// ---------------------------------------------------------------------

// A seeded decoder-shaped L1-fit LP (box variables + u/v residual rows).
LpProblem SeededDecodeLp(uint64_t seed, size_t n, size_t q) {
  Rng rng(seed);
  LpProblem lp;
  std::vector<size_t> x(n);
  for (size_t i = 0; i < n; ++i) x[i] = lp.AddVariable(0.0, 1.0, 0.0);
  for (size_t j = 0; j < q; ++j) {
    size_t u = lp.AddVariable(0.0, LpProblem::kInfinity, 1.0);
    size_t v = lp.AddVariable(0.0, LpProblem::kInfinity, 1.0);
    std::vector<std::pair<size_t, double>> row;
    for (size_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.5)) row.emplace_back(x[i], 1.0);
    }
    row.emplace_back(u, 1.0);
    row.emplace_back(v, -1.0);
    lp.AddConstraint(row, Relation::kEqual,
                     static_cast<double>(rng.UniformInt(0, (int64_t)n)));
  }
  return lp;
}

TEST(DeterminismTest, LpSolversIdenticalAcrossThreadCounts) {
  for (const oracles::LpEngine& engine :
       {oracles::kDenseTableau, oracles::kRevisedSimplex}) {
    LpProblem lp = SeededDecodeLp(/*seed=*/0x17D5, /*n=*/12, /*q=*/40);
    ASSERT_TRUE(lp.build_status().ok());
    Result<LpSolution> serial = engine.solve(lp.instance(), LpSolveOptions{});
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();

    // The same solve replayed concurrently on every pool (the per-solve
    // state is stack-local; only the metric counters are shared, and they
    // only ever add).
    auto pools = MakePools();
    for (const auto& pool : pools) {
      constexpr size_t kReplays = 8;
      std::vector<Result<LpSolution>> replays;
      replays.reserve(kReplays);
      for (size_t i = 0; i < kReplays; ++i) {
        replays.push_back(Status::Internal("not run"));
      }
      ParallelFor(
          pool.get(), kReplays,
          [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
              replays[i] = engine.solve(lp.instance(), LpSolveOptions{});
            }
          },
          /*chunk_size=*/1);
      for (const Result<LpSolution>& r : replays) {
        ASSERT_TRUE(r.ok()) << engine.name;
        EXPECT_EQ(r->iterations, serial->iterations) << engine.name;
        EXPECT_EQ(r->values, serial->values) << engine.name;
        EXPECT_EQ(r->objective, serial->objective) << engine.name;
      }
    }
  }
}

TEST(DeterminismTest, WarmStartedSolvesReplayBitIdentically) {
  LpProblem lp = SeededDecodeLp(/*seed=*/0xBA5E, /*n=*/10, /*q=*/30);

  LpBasis basis;
  LpSolveOptions seed_options;
  seed_options.final_basis = &basis;
  Result<LpSolution> cold = lp.Solve(seed_options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_FALSE(basis.empty());

  // Repeated warm-started solves from the same basis: the basis is read,
  // re-exported identical (the solve is already optimal), and the pivot
  // count and solution vector replay exactly.
  LpSolveOptions warm_options;
  warm_options.warm_start = &basis;
  warm_options.final_basis = &basis;
  Result<LpSolution> first = lp.Solve(warm_options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  for (int replay = 0; replay < 3; ++replay) {
    Result<LpSolution> again = lp.Solve(warm_options);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->iterations, first->iterations) << "replay " << replay;
    EXPECT_EQ(again->values, first->values) << "replay " << replay;
    EXPECT_EQ(again->objective, first->objective) << "replay " << replay;
  }
}

TEST(StreamAtTest, PureFunctionOfSeedAndIndex) {
  for (uint64_t index : {0ull, 1ull, 63ull, 1000000ull}) {
    Rng a = Rng::StreamAt(0xABCD, index);
    Rng b = Rng::StreamAt(0xABCD, index);
    for (int i = 0; i < 16; ++i) {
      ASSERT_EQ(a.NextUint64(), b.NextUint64());
    }
  }
}

TEST(StreamAtTest, DistinctStreamsAndSeeds) {
  // First outputs across 1000 consecutive indices (and across two master
  // seeds) must all differ — consecutive counters land in unrelated
  // states after the SplitMix64 finalizer.
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 1000; ++i) {
    seen.insert(Rng::StreamAt(1, i).NextUint64());
    seen.insert(Rng::StreamAt(2, i).NextUint64());
  }
  EXPECT_EQ(seen.size(), 2000u);
}

TEST(StreamAtTest, AdjacentStreamsUncorrelated) {
  // Pearson correlation between the uniform outputs of adjacent streams.
  // With 1024 samples the null SE is ~1/32; 0.15 is ~5 sigma.
  constexpr size_t kSamples = 1024;
  for (uint64_t i = 0; i < 8; ++i) {
    Rng a = Rng::StreamAt(0x5EED, i);
    Rng b = Rng::StreamAt(0x5EED, i + 1);
    double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
    for (size_t k = 0; k < kSamples; ++k) {
      double x = a.UniformDouble();
      double y = b.UniformDouble();
      sa += x;
      sb += y;
      saa += x * x;
      sbb += y * y;
      sab += x * y;
    }
    double n = static_cast<double>(kSamples);
    double cov = sab / n - (sa / n) * (sb / n);
    double var_a = saa / n - (sa / n) * (sa / n);
    double var_b = sbb / n - (sb / n) * (sb / n);
    double corr = cov / std::sqrt(var_a * var_b);
    EXPECT_LT(std::fabs(corr), 0.15) << "streams " << i << "," << i + 1;
  }
}

TEST(StreamAtTest, NoSequenceOverlapSmokeCheck) {
  // If stream i+1 started inside stream i's sequence, their output sets
  // would intersect. 64 outputs x 16 adjacent pairs: any collision of
  // 64-bit values here means overlap, not chance.
  for (uint64_t i = 0; i < 16; ++i) {
    std::set<uint64_t> a_out;
    Rng a = Rng::StreamAt(0xFACE, i);
    for (int k = 0; k < 64; ++k) a_out.insert(a.NextUint64());
    Rng b = Rng::StreamAt(0xFACE, i + 1);
    for (int k = 0; k < 64; ++k) {
      EXPECT_EQ(a_out.count(b.NextUint64()), 0u) << "streams " << i;
    }
  }
}

// Pins one known-good result per seed. The exact integers below were
// produced by the StreamAt-based trial loop; any accidental reordering of
// RNG consumption (e.g. reintroducing Fork() inside a trial loop, or a
// chunk-order-dependent merge) changes them and fails this test.
TEST(DeterminismTest, PinnedPsoGameRegression) {
  Universe u = MakeGicMedicalUniverse(100);
  // Mondrian + the 1/e hash attack: seed-sensitive intermediate success
  // counts plus a nontrivial weight distribution — a change in RNG
  // consumption order cannot leave all of them untouched.
  auto mech = MakeKAnonymityMechanism(
      KAnonAlgorithm::kMondrian, 5, kanon::HierarchySet::Defaults(u.schema),
      /*qi_attrs=*/{});
  auto adv = MakeKAnonHashAdversary();

  struct Pinned {
    uint64_t seed;
    size_t isolation_successes;
    size_t pso_successes;
    double weights_mean;
  };
  const Pinned pins[] = {
      {1, 19, 18, 0.00034533120460756282},
      {42, 15, 14, 0.00032895111369099338},
  };
  for (const Pinned& pin : pins) {
    PsoGameOptions opts;
    opts.trials = 40;
    opts.weight_pool = 20000;
    opts.seed = pin.seed;
    PsoGame game(u.distribution, 200, opts);
    PsoGameResult r = game.Run(*mech, *adv);
    EXPECT_EQ(r.isolation.trials(), 40u);
    EXPECT_EQ(r.isolation.successes(), pin.isolation_successes)
        << "seed " << pin.seed;
    EXPECT_EQ(r.pso_success.successes(), pin.pso_successes)
        << "seed " << pin.seed;
    EXPECT_NEAR(r.weights.mean(), pin.weights_mean, 1e-12)
        << "seed " << pin.seed;
  }
}

}  // namespace
}  // namespace pso
