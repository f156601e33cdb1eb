#include "recon/attacks.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "common/check.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "solver/lp.h"

namespace pso::recon {

namespace {

// Builds `count` random subset queries (each index in w.p. 1/2) and
// answers them, returning the (query, answer) matrix.
struct QuerySet {
  std::vector<SubsetQuery> queries;
  std::vector<double> answers;
};

QuerySet DrawRandomQueries(SubsetSumOracle& oracle, size_t count, Rng& rng) {
  QuerySet qs;
  qs.queries.reserve(count);
  qs.answers.reserve(count);
  for (size_t j = 0; j < count; ++j) {
    SubsetQuery q(oracle.n());
    for (auto& bit : q) bit = rng.Bernoulli(0.5) ? 1 : 0;
    qs.answers.push_back(oracle.Answer(q));
    qs.queries.push_back(std::move(q));
  }
  return qs;
}

std::vector<uint8_t> RoundAtHalf(const std::vector<double>& x) {
  std::vector<uint8_t> bits(x.size());
  for (size_t i = 0; i < x.size(); ++i) bits[i] = x[i] >= 0.5 ? 1 : 0;
  return bits;
}

// The shape both recorded-transcript decoders require: one answer per
// query, every query an indicator vector of length n.
Status CheckTranscript(size_t n, const std::vector<SubsetQuery>& queries,
                       const std::vector<double>& answers) {
  if (answers.size() != queries.size()) {
    return Status::InvalidArgument(
        "transcript shape mismatch: queries != answers");
  }
  for (const SubsetQuery& q : queries) {
    if (q.size() != n) {
      return Status::InvalidArgument("transcript query length != n");
    }
  }
  return Status::Ok();
}

}  // namespace

Reconstruction ExhaustiveReconstruct(SubsetSumOracle& oracle, double alpha,
                                     ThreadPool* pool) {
  const size_t n = oracle.n();
  PSO_CHECK_MSG(n <= 24, "exhaustive attack is exponential; keep n <= 24");
  metrics::GetCounter("recon.exhaustive_decodes").Add(1);
  PSO_TRACE_SPAN("recon.exhaustive_decode");

  // Ask all 2^n subset queries (serial: the oracle is stateful).
  const uint64_t num_masks = 1ULL << n;
  std::vector<double> answers(num_masks);
  SubsetQuery q(n);
  for (uint64_t mask = 0; mask < num_masks; ++mask) {
    for (size_t i = 0; i < n; ++i) q[i] = (mask >> i) & 1u;
    answers[mask] = oracle.Answer(q);
  }

  // Scan candidates; a candidate is consistent if every query answer is
  // within alpha of the candidate's subset sum. The scan over `answers`
  // is read-only, so chunks of the candidate space run in parallel; each
  // chunk reports its first fully consistent candidate (if any) and its
  // earliest minimum-violation candidate, and the chunk winners merge in
  // index order — the same candidate the serial scan returns.
  struct ChunkBest {
    uint64_t best_candidate = 0;
    double best_violation = std::numeric_limits<double>::infinity();
    bool found_consistent = false;
    uint64_t consistent_candidate = 0;
    double consistent_violation = 0.0;
  };
  const size_t chunk =
      std::max<size_t>(1, DefaultChunkSize(static_cast<size_t>(num_masks)));
  std::vector<ChunkBest> bests(NumChunks(static_cast<size_t>(num_masks),
                                         chunk));
  ParallelFor(
      pool, static_cast<size_t>(num_masks),
      [&](size_t begin, size_t end) {
        ChunkBest& best = bests[begin / chunk];
        for (uint64_t cand = begin; cand < end; ++cand) {
          double worst = 0.0;
          for (uint64_t mask = 0; mask < num_masks; ++mask) {
            double sum = static_cast<double>(std::popcount(cand & mask));
            double v = std::fabs(sum - answers[mask]);
            if (v > worst) {
              worst = v;
              if (worst > alpha && worst >= best.best_violation) {
                break;  // hopeless
              }
            }
          }
          if (worst < best.best_violation) {
            best.best_violation = worst;
            best.best_candidate = cand;
            if (worst <= alpha) {
              best.found_consistent = true;
              best.consistent_candidate = cand;
              best.consistent_violation = worst;
              break;  // fully consistent candidate found in this chunk
            }
          }
        }
      },
      chunk);

  uint64_t best_candidate = 0;
  double best_violation = std::numeric_limits<double>::infinity();
  for (const ChunkBest& best : bests) {
    if (best.found_consistent) {
      best_candidate = best.consistent_candidate;
      best_violation = best.consistent_violation;
      break;  // earliest chunk with a consistent candidate wins
    }
    if (best.best_violation < best_violation) {
      best_violation = best.best_violation;
      best_candidate = best.best_candidate;
    }
  }

  Reconstruction out;
  out.estimate.resize(n);
  for (size_t i = 0; i < n; ++i) {
    out.estimate[i] = (best_candidate >> i) & 1u;
  }
  out.queries_used = num_masks;
  out.decoder_residual = best_violation;
  return out;
}

Result<Reconstruction> LpReconstruct(SubsetSumOracle& oracle,
                                     size_t num_queries, Rng& rng) {
  QuerySet qs = DrawRandomQueries(oracle, num_queries, rng);
  return LpDecodeRecorded(oracle.n(), qs.queries, qs.answers);
}

LpProblem LpDecodeProblem(size_t n, const std::vector<SubsetQuery>& queries,
                          const std::vector<double>& answers) {
  // The LP dual of the L1 fit min ||Qx - a||_1 over x in [0,1]^n:
  //   minimize -a^T y + 1^T s  subject to  Q^T y - s <= 0,
  //   -1 <= y <= 1,  s >= 0,
  // one y per query and one row and one s per coordinate. Its optimum is
  // minus the fit's, and x is the rows' duals negated. The all-logical
  // start (y = -1, s = 0) is feasible because Q >= 0: no phase 1.
  LpProblem lp;
  std::vector<std::vector<std::pair<size_t, double>>> rows(n);
  for (size_t j = 0; j < queries.size(); ++j) {
    const size_t y = lp.AddVariable(-1.0, 1.0, -answers[j]);
    for (size_t i = 0; i < n; ++i) {
      if (queries[j][i] != 0) rows[i].emplace_back(y, 1.0);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    rows[i].emplace_back(lp.AddVariable(0.0, LpProblem::kInfinity, 1.0), -1.0);
    lp.AddConstraint(rows[i], Relation::kLessEq, 0.0);
  }
  return lp;
}

Result<Reconstruction> LpDecodeRecorded(size_t n,
                                        const std::vector<SubsetQuery>& queries,
                                        const std::vector<double>& answers) {
  Status shape = CheckTranscript(n, queries, answers);
  if (!shape.ok()) return shape;
  const size_t num_queries = queries.size();
  metrics::GetCounter("recon.lp_decodes").Add(1);
  metrics::GetCounter("recon.queries").Add(num_queries);
  trace::Span decode_span("recon.lp_decode");
  if (decode_span.active()) {
    decode_span.Arg("n", std::to_string(n));
    decode_span.Arg("queries", std::to_string(num_queries));
  }

  Result<LpSolution> solved = LpDecodeProblem(n, queries, answers).Solve();
  if (!solved.ok()) return solved.status();

  Reconstruction out;
  std::vector<double> x(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = std::clamp(-solved->row_duals[i], 0.0, 1.0);
  }
  out.estimate = RoundAtHalf(x);
  out.queries_used = num_queries;
  out.decoder_residual = std::max(0.0, -solved->objective);  // An L1 norm.
  return out;
}

namespace {

// Projected-gradient least squares over a transcript that passed
// CheckTranscript.
Reconstruction LeastSquaresDecode(size_t n,
                                  const std::vector<SubsetQuery>& queries,
                                  const std::vector<double>& answers,
                                  size_t iterations) {
  const size_t num_queries = queries.size();
  metrics::GetCounter("recon.lsq_decodes").Add(1);
  metrics::GetCounter("recon.queries").Add(num_queries);
  PSO_TRACE_SPAN("recon.lsq_decode");
  const size_t m = num_queries;

  // Power iteration for the top eigenvalue of Q^T Q (sets the step size).
  std::vector<double> v(n, 1.0 / std::sqrt(static_cast<double>(n)));
  std::vector<double> qv(m);
  double lambda = 1.0;
  for (int it = 0; it < 12; ++it) {
    for (size_t j = 0; j < m; ++j) {
      double s = 0.0;
      for (size_t i = 0; i < n; ++i) {
        if (queries[j][i] != 0) s += v[i];
      }
      qv[j] = s;
    }
    std::vector<double> w(n, 0.0);
    for (size_t j = 0; j < m; ++j) {
      if (qv[j] == 0.0) continue;
      for (size_t i = 0; i < n; ++i) {
        if (queries[j][i] != 0) w[i] += qv[j];
      }
    }
    double norm = 0.0;
    for (double wi : w) norm += wi * wi;
    norm = std::sqrt(norm);
    if (norm == 0.0) break;
    lambda = norm;
    for (size_t i = 0; i < n; ++i) v[i] = w[i] / norm;
  }
  double step = 1.0 / lambda;

  // Projected gradient descent on ||Qx - a||^2 / 2 over [0,1]^n.
  std::vector<double> x(n, 0.5);
  std::vector<double> residual(m);
  for (size_t it = 0; it < iterations; ++it) {
    for (size_t j = 0; j < m; ++j) {
      double s = 0.0;
      for (size_t i = 0; i < n; ++i) {
        if (queries[j][i] != 0) s += x[i];
      }
      residual[j] = s - answers[j];
    }
    for (size_t i = 0; i < n; ++i) {
      double g = 0.0;
      for (size_t j = 0; j < m; ++j) {
        if (queries[j][i] != 0) g += residual[j];
      }
      x[i] -= step * g;
      if (x[i] < 0.0) x[i] = 0.0;
      if (x[i] > 1.0) x[i] = 1.0;
    }
  }

  double rss = 0.0;
  for (double r : residual) rss += r * r;

  Reconstruction out;
  out.estimate = RoundAtHalf(x);
  out.queries_used = num_queries;
  out.decoder_residual = std::sqrt(rss);
  return out;
}

}  // namespace

Reconstruction LeastSquaresReconstruct(SubsetSumOracle& oracle,
                                       size_t num_queries, Rng& rng,
                                       size_t iterations) {
  QuerySet qs = DrawRandomQueries(oracle, num_queries, rng);
  return LeastSquaresDecode(oracle.n(), qs.queries, qs.answers, iterations);
}

Result<Reconstruction> LeastSquaresDecodeRecorded(
    size_t n, const std::vector<SubsetQuery>& queries,
    const std::vector<double>& answers, size_t iterations) {
  Status shape = CheckTranscript(n, queries, answers);
  if (!shape.ok()) return shape;
  return LeastSquaresDecode(n, queries, answers, iterations);
}

}  // namespace pso::recon
