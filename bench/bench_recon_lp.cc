// E2 — Theorem 1.1(ii): polynomially many random subset queries with error
// alpha = c*sqrt(n) admit reconstruction by LP decoding. Series: accuracy
// vs alpha/sqrt(n) for the LP and least-squares decoders across n; the
// crossover from near-perfect to failed reconstruction sits at
// alpha/sqrt(n) of order 1.
//
// The accuracy series runs on the revised simplex with the warm-start
// basis threaded across same-shaped decode LPs. Exact answers (c = 0) are
// the attacker's easiest case and the decode LP's most degenerate one:
// the c = 0 grid points and one exact decode at n = 192 must reconstruct
// perfectly within kExactPivotsPerRow pivots per query row. A second
// "grid replay" leg then re-solves one trial of the full grid with a
// fresh warm-start chain and measures its pivot work: an absolute
// lp.pivot_work bound on that deterministic count is the engine's
// performance contract, and the replay's objectives must match the
// series' (a warm start may change the path, never the optimum).

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/stats.h"
#include "common/table.h"
#include "recon/attacks.h"
#include "recon/oracle.h"
#include "solver/lp.h"

namespace pso {
namespace {

// The E2 grid: both legs iterate exactly these points so the replay
// solves the same LP instances the accuracy series does.
constexpr size_t kNs[] = {32, 64};
constexpr double kCs[] = {0.0, 0.25, 0.5, 1.0, 2.0, 4.0};

// One LP decode at grid point (n, c, trial): same seeding for the oracle
// and query stream on every call, so repeated runs (and the replay) see
// bit-identical LP instances.
struct DecodePoint {
  double accuracy = 0.0;
  double residual = 0.0;
  bool ok = false;
};

DecodePoint LpDecodeAt(size_t n, double c, size_t trial,
                       const recon::LpDecodeOptions& options) {
  const size_t queries = 5 * n;
  const double alpha = c * std::sqrt(static_cast<double>(n));
  Rng rng(500 + 17 * trial + n);
  auto secret = recon::RandomBits(n, rng);
  DecodePoint out;
  if (alpha == 0.0) {
    recon::ExactOracle oracle(secret);
    auto r = recon::LpReconstruct(oracle, queries, rng, options);
    if (!r.ok()) return out;
    out.ok = true;
    out.accuracy = recon::FractionAgree(r->estimate, secret);
    out.residual = r->decoder_residual;
  } else {
    recon::BoundedNoiseOracle oracle(secret, alpha, 31 + trial);
    auto r = recon::LpReconstruct(oracle, queries, rng, options);
    if (!r.ok()) return out;
    out.ok = true;
    out.accuracy = recon::FractionAgree(r->estimate, secret);
    out.residual = r->decoder_residual;
  }
  return out;
}

// Pivot bound of an exact-answer decode, per query row.
constexpr double kExactPivotsPerRow = 8.0;

// Upper bound on the replay's lp.pivot_work. The count is deterministic
// (246,096,845 when the bound was set); the ~20% headroom admits engine
// tuning that moves it a little, not a return to grinding the exact
// decodes' degenerate vertices with Bland's rule (~24x more work).
constexpr uint64_t kReplayPivotWorkBound = 300000000;

// Replays one trial of the grid, threading a fresh warm-start basis
// across the same-shaped decodes of each n. Returns the replay's pivot
// work and pivot count and per-point residuals.
struct GridReplay {
  uint64_t pivot_work = 0;
  uint64_t pivots = 0;
  std::vector<double> residuals;
  bool ok = true;
};

GridReplay ReplayGrid() {
  GridReplay replay;
  const uint64_t work_before = metrics::GetCounter("lp.pivot_work").value();
  const uint64_t pivots_before = metrics::GetCounter("lp.pivots").value();
  for (size_t n : kNs) {
    LpBasis basis;  // reset per n: the decode LP shape changes with n
    recon::LpDecodeOptions options;
    options.basis = &basis;
    for (double c : kCs) {
      DecodePoint p = LpDecodeAt(n, c, /*trial=*/0, options);
      replay.ok = replay.ok && p.ok;
      replay.residuals.push_back(p.residual);
    }
  }
  replay.pivot_work =
      metrics::GetCounter("lp.pivot_work").value() - work_before;
  replay.pivots = metrics::GetCounter("lp.pivots").value() - pivots_before;
  return replay;
}

int Run(int argc, char** argv) {
  bench::BenchContext ctx =
      bench::MakeBenchContext("bench_recon_lp", argc, argv);
  ctx.threads = 1;  // this harness runs serially
  bench::Banner(
      "E2: polynomial reconstruction by LP decoding (Theorem 1.1(ii))",
      "t = O(n) random subset queries with error alpha = c*sqrt(n) allow "
      "reconstruction of all but a small fraction of x; error >> sqrt(n) "
      "defeats it");

  TextTable table(
      {"n", "queries", "alpha/sqrt(n)", "acc(LP)", "acc(LSQ)"});

  double lp_small_noise = 0.0;
  double lp_big_noise = 1.0;
  double lsq_small_noise_big_n = 0.0;
  std::vector<double> series_residuals;  // trial 0, in grid order
  // Per n of the grid: the worst c = 0 accuracy and pivots per row.
  std::vector<std::pair<double, double>> exact_points;

  for (size_t n : kNs) {
    const size_t queries = 5 * n;
    LpBasis basis;  // warm-start slot shared by this n's decodes
    recon::LpDecodeOptions lp_options;
    lp_options.basis = &basis;
    for (double c : kCs) {
      double alpha = c * std::sqrt(static_cast<double>(n));
      RunningStats lp_acc;
      RunningStats lsq_acc;
      double min_accuracy = 1.0;
      double max_pivots_per_row = 0.0;
      const size_t trials = 3;
      for (size_t t = 0; t < trials; ++t) {
        const uint64_t pivots_before = metrics::GetCounter("lp.pivots").value();
        DecodePoint p = bench::TimedIteration(
            [&] { return LpDecodeAt(n, c, t, lp_options); });
        max_pivots_per_row = std::max(
            max_pivots_per_row,
            static_cast<double>(metrics::GetCounter("lp.pivots").value() -
                                pivots_before) /
                static_cast<double>(queries));
        if (p.ok) lp_acc.Add(p.accuracy);
        min_accuracy = std::min(min_accuracy, p.ok ? p.accuracy : 0.0);
        if (t == 0) series_residuals.push_back(p.residual);
        // The LSQ decoder re-draws the same oracle/query stream.
        Rng rng(500 + 17 * t + n);
        auto secret = recon::RandomBits(n, rng);
        if (alpha == 0.0) {
          recon::ExactOracle lsq_oracle(secret);
          auto r2 = recon::LeastSquaresReconstruct(lsq_oracle, queries, rng);
          lsq_acc.Add(recon::FractionAgree(r2.estimate, secret));
        } else {
          recon::BoundedNoiseOracle lsq_oracle(secret, alpha, 51 + t);
          auto r2 = recon::LeastSquaresReconstruct(lsq_oracle, queries, rng);
          lsq_acc.Add(recon::FractionAgree(r2.estimate, secret));
        }
      }
      table.AddRow({StrFormat("%zu", n), StrFormat("%zu", queries),
                    StrFormat("%.2f", c), StrFormat("%.3f", lp_acc.mean()),
                    StrFormat("%.3f", lsq_acc.mean())});
      if (n == 64 && c == 0.25) {
        lp_small_noise = lp_acc.mean();
        lsq_small_noise_big_n = lsq_acc.mean();
      }
      if (n == 64 && c == 4.0) lp_big_noise = lp_acc.mean();
      if (c == 0.0) {
        exact_points.emplace_back(min_accuracy, max_pivots_per_row);
      }
    }
  }
  // Exact decoding past the grid: n = 192, cold start.
  double exact_big_accuracy = 0.0;
  double exact_big_pivots_per_row = 0.0;
  {
    const size_t n = 192;
    const uint64_t pivots_before = metrics::GetCounter("lp.pivots").value();
    DecodePoint p = LpDecodeAt(n, 0.0, /*trial=*/0, recon::LpDecodeOptions{});
    exact_big_pivots_per_row =
        static_cast<double>(metrics::GetCounter("lp.pivots").value() -
                            pivots_before) /
        static_cast<double>(5 * n);
    if (p.ok) exact_big_accuracy = p.accuracy;
    table.AddRow({"192", "960", "0.00", StrFormat("%.3f", exact_big_accuracy),
                  "-"});
  }
  // The LSQ decoder scales further; show n = 192 at the favorable noise.
  {
    const size_t n = 192;
    Rng rng(999);
    auto secret = recon::RandomBits(n, rng);
    recon::BoundedNoiseOracle oracle(
        secret, 0.25 * std::sqrt(static_cast<double>(n)), 7);
    auto r = recon::LeastSquaresReconstruct(oracle, 5 * n, rng);
    double acc = recon::FractionAgree(r.estimate, secret);
    table.AddRow({"192", "960", "0.25", "-", StrFormat("%.3f", acc)});
  }
  table.Print();

  // ---- Grid replay: one trial, fresh warm-start chain. ----
  GridReplay replay = ReplayGrid();
  double residual_gap = 0.0;
  for (size_t i = 0; i < replay.residuals.size(); ++i) {
    const double scale = std::max(1.0, std::fabs(series_residuals[i]));
    residual_gap = std::max(
        residual_gap,
        std::fabs(series_residuals[i] - replay.residuals[i]) / scale);
  }
  std::printf("\n-- grid replay (one trial of the grid) --\n");
  std::printf("pivots: %llu   pivot work: %llu (bound %llu)   max objective "
              "gap vs the series: %.3g\n",
              (unsigned long long)replay.pivots,
              (unsigned long long)replay.pivot_work,
              (unsigned long long)kReplayPivotWorkBound, residual_gap);

  bench::ShapeChecks checks;
  checks.CheckBetween(lp_small_noise, 0.93, 1.0,
                      "LP decoding at alpha = 0.25*sqrt(n), n=64");
  checks.CheckBetween(lsq_small_noise_big_n, 0.9, 1.0,
                      "LSQ decoding at alpha = 0.25*sqrt(n), n=64");
  checks.CheckBetween(lp_big_noise, 0.0, 0.9,
                      "LP decoding collapses at alpha = 4*sqrt(n)");
  checks.CheckGreater(lp_small_noise, lp_big_noise,
                      "crossover in c = alpha/sqrt(n) exists");
  for (size_t k = 0; k < exact_points.size(); ++k) {
    checks.CheckBetween(exact_points[k].first, 1.0, 1.0,
                        StrFormat("LP decoding is exact at alpha = 0, n=%zu",
                                  kNs[k]));
    checks.CheckBetween(exact_points[k].second, 0.0, kExactPivotsPerRow,
                        StrFormat("pivots per row of exact decodes, n=%zu",
                                  kNs[k]));
  }
  checks.CheckBetween(exact_big_accuracy, 1.0, 1.0,
                      "LP decoding is exact at alpha = 0, n=192");
  checks.CheckBetween(exact_big_pivots_per_row, 0.0, kExactPivotsPerRow,
                      "pivots per row of the exact decode, n=192");
  checks.Check(replay.ok, "the replay solved every LP");
  checks.CheckBetween(static_cast<double>(replay.pivot_work), 1.0,
                      static_cast<double>(kReplayPivotWorkBound),
                      "replay lp.pivot_work within its absolute bound");
  checks.CheckBetween(residual_gap, 0.0, 1e-6,
                      "replay objectives match the accuracy series");
  return bench::FinishBench(ctx, "E2", checks);
}

}  // namespace
}  // namespace pso

int main(int argc, char** argv) {
  return pso::Run(argc, argv);
}
