// The primal L1 fit that LP decoding solves through its dual: the
// reference model for checks of recon::LpDecodeRecorded.

#include <utility>
#include <vector>

#include "oracles/oracles.h"

namespace pso::oracles {

LpProblem L1FitPrimal(size_t n,
                      const std::vector<std::vector<uint8_t>>& queries,
                      const std::vector<double>& answers) {
  LpProblem lp;
  for (size_t i = 0; i < n; ++i) lp.AddVariable(0.0, 1.0, 0.0);
  for (size_t j = 0; j < queries.size(); ++j) {
    const size_t u = lp.AddVariable(0.0, LpProblem::kInfinity, 1.0);
    const size_t v = lp.AddVariable(0.0, LpProblem::kInfinity, 1.0);
    std::vector<std::pair<size_t, double>> row;
    for (size_t i = 0; i < n; ++i) {
      if (queries[j][i] != 0) row.emplace_back(i, 1.0);
    }
    row.emplace_back(u, 1.0);
    row.emplace_back(v, -1.0);
    lp.AddConstraint(row, Relation::kEqual, answers[j]);
  }
  return lp;
}

}  // namespace pso::oracles
