// Tests for the Dinur–Nissim reconstruction module (Theorem 1.1).

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "recon/attacks.h"
#include "recon/oracle.h"

namespace pso::recon {
namespace {

TEST(OracleTest, ExactAnswers) {
  ExactOracle oracle({1, 0, 1, 1});
  EXPECT_DOUBLE_EQ(oracle.Answer({1, 1, 1, 1}), 3.0);
  EXPECT_DOUBLE_EQ(oracle.Answer({1, 0, 0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(oracle.Answer({0, 1, 0, 0}), 0.0);
  EXPECT_EQ(oracle.queries_answered(), 3u);
}

TEST(OracleTest, BoundedNoiseStaysInBounds) {
  std::vector<uint8_t> bits(50, 1);
  BoundedNoiseOracle oracle(bits, /*alpha=*/2.5, /*seed=*/1);
  SubsetQuery all(50, 1);
  for (int i = 0; i < 1000; ++i) {
    double a = oracle.Answer(all);
    EXPECT_GE(a, 50.0 - 2.5);
    EXPECT_LE(a, 50.0 + 2.5);
  }
}

TEST(OracleTest, RoundingErrorAtMostHalfGranularity) {
  std::vector<uint8_t> bits = {1, 1, 1, 0, 0, 1, 0, 1};
  RoundingOracle oracle(bits, /*granularity=*/5.0);
  SubsetQuery q(8, 1);
  double a = oracle.Answer(q);  // true sum 5
  EXPECT_DOUBLE_EQ(a, 5.0);
  SubsetQuery q2 = {1, 1, 1, 0, 0, 0, 0, 0};  // true 3 -> rounds to 5
  EXPECT_DOUBLE_EQ(oracle.Answer(q2), 5.0);
  SubsetQuery q3 = {1, 1, 0, 0, 0, 0, 0, 0};  // true 2 -> rounds to 0
  EXPECT_DOUBLE_EQ(oracle.Answer(q3), 0.0);
}

TEST(OracleTest, LaplaceNoiseCentered) {
  std::vector<uint8_t> bits(20, 1);
  LaplaceOracle oracle(bits, /*eps_per_query=*/1.0, /*seed=*/3);
  SubsetQuery all(20, 1);
  double sum = 0.0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) sum += oracle.Answer(all);
  EXPECT_NEAR(sum / kTrials, 20.0, 0.05);
}

TEST(OracleTest, FractionAgree) {
  EXPECT_DOUBLE_EQ(FractionAgree({1, 0, 1}, {1, 0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(FractionAgree({1, 0, 1, 0}, {1, 1, 1, 1}), 0.5);
  EXPECT_DOUBLE_EQ(FractionAgree({0}, {1}), 0.0);
}

TEST(OracleTest, RandomBitsBalanced) {
  Rng rng(5);
  auto bits = RandomBits(10000, rng);
  double ones = 0;
  for (uint8_t b : bits) ones += b;
  EXPECT_NEAR(ones / 10000.0, 0.5, 0.02);
}

// Theorem 1.1(i): with exact answers to all subset queries, the exhaustive
// attack recovers x perfectly.
TEST(ExhaustiveTest, ExactOracleFullRecovery) {
  Rng rng(7);
  auto secret = RandomBits(10, rng);
  ExactOracle oracle(secret);
  Reconstruction r = ExhaustiveReconstruct(oracle, /*alpha=*/0.0);
  EXPECT_EQ(r.estimate, secret);
  EXPECT_EQ(r.queries_used, 1024u);
}

// With bounded noise alpha < 1/2 the answers identify x exactly (rounding
// recovers the exact counts).
TEST(ExhaustiveTest, SmallNoiseStillExact) {
  Rng rng(9);
  auto secret = RandomBits(10, rng);
  BoundedNoiseOracle oracle(secret, /*alpha=*/0.4, /*seed=*/11);
  Reconstruction r = ExhaustiveReconstruct(oracle, /*alpha=*/0.4);
  EXPECT_DOUBLE_EQ(FractionAgree(r.estimate, secret), 1.0);
}

// With moderate noise (alpha = c*n for small c) the reconstruction error
// stays below ~ 4*alpha/n of entries (the Theorem 1.1 regime).
TEST(ExhaustiveTest, ModerateNoiseSmallError) {
  Rng rng(13);
  const size_t n = 12;
  auto secret = RandomBits(n, rng);
  const double alpha = 1.5;
  BoundedNoiseOracle oracle(secret, alpha, /*seed=*/15);
  Reconstruction r = ExhaustiveReconstruct(oracle, alpha);
  double agree = FractionAgree(r.estimate, secret);
  // Any candidate consistent within alpha differs in < ~4*alpha bits.
  EXPECT_GE(agree, 1.0 - 4.0 * alpha / static_cast<double>(n));
}

// Theorem 1.1(ii): LP decoding from polynomially many noisy queries.
TEST(LpReconstructTest, ExactQueriesFullRecovery) {
  Rng rng(17);
  const size_t n = 24;
  auto secret = RandomBits(n, rng);
  ExactOracle oracle(secret);
  auto r = LpReconstruct(oracle, /*num_queries=*/4 * n, rng);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(FractionAgree(r->estimate, secret), 0.95);
}

TEST(LpReconstructTest, NoiseBelowSqrtNRecovered) {
  Rng rng(19);
  const size_t n = 32;
  auto secret = RandomBits(n, rng);
  const double alpha = 0.3 * std::sqrt(static_cast<double>(n));
  BoundedNoiseOracle oracle(secret, alpha, /*seed=*/21);
  auto r = LpReconstruct(oracle, 5 * n, rng);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(FractionAgree(r->estimate, secret), 0.85);
}

uint64_t CounterValue(const char* name) {
  return metrics::GetCounter(name).value();
}

// Exact answers are the attacker's easiest case, so they must not be the
// decoder's worst: the degenerate L1 optimum decodes exactly within a
// small constant number of pivots per query row.
TEST(LpReconstructTest, ExactAnswersDecodeWithinEightPivotsPerRow) {
  for (size_t n : {96, 128}) {
    Rng rng(1000 + n);
    auto secret = RandomBits(n, rng);
    ExactOracle oracle(secret);
    const size_t rows = 5 * n;
    const uint64_t pivots = CounterValue("lp.pivots");
    auto r = LpReconstruct(oracle, rows, rng);
    ASSERT_TRUE(r.ok()) << "n=" << n << ": " << r.status().ToString();
    EXPECT_EQ(FractionAgree(r->estimate, secret), 1.0) << "n=" << n;
    EXPECT_LE(r->decoder_residual, 1e-6) << "n=" << n;
    EXPECT_LE(CounterValue("lp.pivots") - pivots, 8 * rows) << "n=" << n;
  }
}

// Only the degenerate (exact-answer) decode perturbs; the noisy decode
// keeps the plain Dantzig path. Either way the phase-1 and phase-2
// pivot counters add up to lp.pivots.
TEST(LpReconstructTest, OnlyExactDecodesPerturbAndPhasesAddUp) {
  const size_t n = 32;
  for (double c : {0.0, 0.25}) {
    Rng rng(77);
    auto secret = RandomBits(n, rng);
    const double alpha = c * std::sqrt(static_cast<double>(n));
    BoundedNoiseOracle oracle(secret, alpha, /*seed=*/5);
    const uint64_t perturbations = CounterValue("lp.perturbations");
    const uint64_t pivots = CounterValue("lp.pivots");
    const uint64_t phase1 = CounterValue("lp.phase1_iterations");
    const uint64_t phase2 = CounterValue("lp.phase2_iterations");
    auto r = LpReconstruct(oracle, 5 * n, rng);
    ASSERT_TRUE(r.ok()) << "c=" << c << ": " << r.status().ToString();
    EXPECT_EQ(CounterValue("lp.perturbations") - perturbations,
              c == 0.0 ? 1u : 0u)
        << "c=" << c;
    EXPECT_EQ(CounterValue("lp.phase1_iterations") - phase1 +
                  CounterValue("lp.phase2_iterations") - phase2,
              CounterValue("lp.pivots") - pivots)
        << "c=" << c;
  }
}

TEST(LeastSquaresTest, ExactQueriesFullRecovery) {
  Rng rng(23);
  const size_t n = 64;
  auto secret = RandomBits(n, rng);
  ExactOracle oracle(secret);
  Reconstruction r = LeastSquaresReconstruct(oracle, 5 * n, rng);
  EXPECT_GE(FractionAgree(r.estimate, secret), 0.97);
}

TEST(LeastSquaresTest, ModerateNoiseMostlyRecovered) {
  Rng rng(29);
  const size_t n = 96;
  auto secret = RandomBits(n, rng);
  const double alpha = 0.4 * std::sqrt(static_cast<double>(n));
  BoundedNoiseOracle oracle(secret, alpha, /*seed=*/31);
  Reconstruction r = LeastSquaresReconstruct(oracle, 6 * n, rng);
  EXPECT_GE(FractionAgree(r.estimate, secret), 0.85);
}

// The flip side of the Fundamental Law: enough noise (DP-style, scaled to
// the query count) defeats reconstruction — accuracy drops toward the 50%
// coin-flip line.
TEST(LeastSquaresTest, LargeNoiseDefeatsReconstruction) {
  Rng rng(37);
  const size_t n = 64;
  auto secret = RandomBits(n, rng);
  // Noise magnitude ~ n: far beyond the c*sqrt(n) threshold.
  BoundedNoiseOracle oracle(secret, static_cast<double>(n), /*seed=*/41);
  Reconstruction r = LeastSquaresReconstruct(oracle, 5 * n, rng);
  double agree = FractionAgree(r.estimate, secret);
  EXPECT_LT(agree, 0.8);  // far from the <5%-error regime
}

// Both recorded-transcript decoders reject a malformed transcript with
// InvalidArgument (a transcript may come off the wire) and still decode
// a well-formed one.
TEST(RecordedDecodeTest, MalformedTranscriptIsInvalidArgument) {
  const size_t n = 4;
  const std::vector<SubsetQuery> queries = {
      {1, 0, 1, 0}, {0, 1, 1, 0}, {1, 1, 0, 1}};
  const std::vector<double> answers = {1.0, 1.0, 2.0};
  const std::vector<double> short_answers = {1.0, 1.0};
  std::vector<SubsetQuery> ragged = queries;
  ragged[1].push_back(1);  // length n + 1

  auto lp = [](size_t len, const std::vector<SubsetQuery>& q,
               const std::vector<double>& a) {
    return LpDecodeRecorded(len, q, a);
  };
  auto lsq = [](size_t len, const std::vector<SubsetQuery>& q,
                const std::vector<double>& a) {
    return LeastSquaresDecodeRecorded(len, q, a);
  };
  for (const auto& [name, decode] :
       {std::pair{"lp", +lp}, std::pair{"lsq", +lsq}}) {
    Result<Reconstruction> mismatch = decode(n, queries, short_answers);
    ASSERT_FALSE(mismatch.ok()) << name;
    EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument)
        << name;
    Result<Reconstruction> wrong_length = decode(n, ragged, answers);
    ASSERT_FALSE(wrong_length.ok()) << name;
    EXPECT_EQ(wrong_length.status().code(), StatusCode::kInvalidArgument)
        << name;
    Result<Reconstruction> good = decode(n, queries, answers);
    ASSERT_TRUE(good.ok()) << name << ": " << good.status().ToString();
    EXPECT_EQ(good->estimate.size(), n) << name;
    EXPECT_EQ(good->queries_used, queries.size()) << name;
  }
}

// Property sweep over n: exhaustive attack with exact answers always
// recovers exactly.
class ExhaustiveSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(ExhaustiveSweep, ExactRecovery) {
  const size_t n = GetParam();
  Rng rng(100 + n);
  auto secret = RandomBits(n, rng);
  ExactOracle oracle(secret);
  Reconstruction r = ExhaustiveReconstruct(oracle, 0.0);
  EXPECT_EQ(r.estimate, secret);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ExhaustiveSweep,
                         ::testing::Values(2, 4, 6, 8, 11));

}  // namespace
}  // namespace pso::recon
