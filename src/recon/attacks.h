// Reconstruction attacks (Theorem 1.1 and the Fundamental Law).
//
// * ExhaustiveReconstruct — Theorem 1.1(i): with all 2^n subset queries
//   answered within error alpha, scan all 2^n candidate datasets and keep
//   one consistent with every answer; any such candidate agrees with the
//   secret on all but O(alpha) entries.
// * LpReconstruct — Theorem 1.1(ii) via LP decoding (Dwork–McSherry–
//   Talwar): polynomially many random subset queries, minimize the total
//   L1 violation over the fractional hypercube, round.
// * LeastSquaresReconstruct — projected-gradient least-squares decoder;
//   same regime as LP decoding but scales to larger n on this substrate.

#ifndef PSO_RECON_ATTACKS_H_
#define PSO_RECON_ATTACKS_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "recon/oracle.h"

namespace pso {
class ThreadPool;
struct LpBasis;
}

namespace pso::recon {

/// Output of a reconstruction attack.
struct Reconstruction {
  std::vector<uint8_t> estimate;
  size_t queries_used = 0;
  double decoder_residual = 0.0;  ///< Decoder-specific fit diagnostic.
};

/// Theorem 1.1(i). Issues all 2^n subset queries (n <= 24 enforced), then
/// searches all 2^n candidates for one whose subset sums match every
/// answer within `alpha`. Returns the first consistent candidate, or the
/// minimum-max-violation candidate if none is fully consistent. The
/// candidate scan is pure, so a non-null `pool` splits it across workers;
/// per-chunk winners merge in chunk order, reproducing the serial
/// "earliest candidate wins" result at any thread count.
Reconstruction ExhaustiveReconstruct(SubsetSumOracle& oracle, double alpha,
                                     ThreadPool* pool = nullptr);

/// Tuning knobs for LpReconstruct. Defaults reproduce the plain call: a
/// cold-started solve.
struct LpDecodeOptions {
  /// Borrowed basis slot threaded across repeated decodes. When non-null:
  /// a non-empty basis warm-starts the solve (decode LPs of one
  /// experiment share n and query count, hence shape), and the final
  /// basis is written back after an optimal solve. The caller owns the
  /// LpBasis and resets it when the LP shape changes.
  LpBasis* basis = nullptr;
};

/// Theorem 1.1(ii) by LP decoding. Issues `num_queries` uniformly random
/// subset queries (each index included w.p. 1/2), solves
///   min sum_j t_j  s.t.  |<q_j, x> - a_j| <= t_j,  x in [0,1]^n
/// with the simplex solver, and rounds x at 1/2.
[[nodiscard]] Result<Reconstruction> LpReconstruct(SubsetSumOracle& oracle,
                                     size_t num_queries, Rng& rng);

/// As above with an optional warm-start basis carried across calls (see
/// LpDecodeOptions).
[[nodiscard]] Result<Reconstruction> LpReconstruct(
    SubsetSumOracle& oracle, size_t num_queries, Rng& rng,
    const LpDecodeOptions& options);

/// Least-squares decoder: minimizes ||Qx - a||_2^2 over [0,1]^n by
/// projected gradient (step from a power-iteration bound on ||Q||^2),
/// then rounds. `iterations` gradient steps.
Reconstruction LeastSquaresReconstruct(SubsetSumOracle& oracle,
                                       size_t num_queries, Rng& rng,
                                       size_t iterations = 400);

/// LP decoding over a RECORDED transcript: the attacker-as-client path.
/// Instead of querying an oracle in-process, the caller supplies the
/// (query, answer) pairs it observed from a live service (the Cohen–
/// Nissim "Linear Program Reconstruction in Practice" loop) and the same
/// residual-splitting L1 program is solved over them. `queries[j]` must
/// all be indicator vectors of length `n`; `answers[j]` is the value the
/// service released for query j. A transcript breaking that shape (or
/// with answers.size() != queries.size()) is InvalidArgument.
[[nodiscard]] Result<Reconstruction> LpDecodeRecorded(
    size_t n, const std::vector<SubsetQuery>& queries,
    const std::vector<double>& answers,
    const LpDecodeOptions& options = LpDecodeOptions{});

/// Least-squares decoding over a recorded transcript (see
/// LpDecodeRecorded, including its InvalidArgument shape checks); scales
/// to larger n than the LP on this substrate.
[[nodiscard]] Result<Reconstruction> LeastSquaresDecodeRecorded(
    size_t n, const std::vector<SubsetQuery>& queries,
    const std::vector<double>& answers, size_t iterations = 400);

}  // namespace pso::recon

#endif  // PSO_RECON_ATTACKS_H_
