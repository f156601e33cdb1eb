// census: the E9 table-to-microdata pipeline. Each round is one fresh
// 150-block population (2..9 persons a block) whose exact tables and
// eps = 2 DP tables go through census::ReconstructPopulation and
// census::Reidentify, after which census::ReconstructBlockSat solves every
// exact block on the default SAT engine. The work is the CSP enumerator,
// CDCL, the linkage join and the thread pool; there is no LP here. Exact
// tables make the search propagation-complete; the DP tables' slack makes
// it a budgeted search, so both solver regimes are in every round.

#include <cstdio>
#include <optional>

#include "census/population.h"
#include "census/reconstruct.h"
#include "census/reidentify.h"
#include "census/sat_reconstruct.h"
#include "census/tabulator.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "perfbench.h"
#include "reference.h"

namespace perfbench {
namespace {

using namespace pso::census;  // NOLINT(build/namespaces)

constexpr size_t kBlocks = 150;
constexpr double kDpEps = 2.0;
constexpr double kRoundDeadlineS = 30.0;
// E9's enumeration budgets (bench_census_reconstruction.cc).
constexpr size_t kExactMaxSolutions = 64;
constexpr size_t kExactMaxNodes = 500000;
constexpr size_t kDpMaxSolutions = 16;
constexpr size_t kDpMaxNodes = 150000;

struct Round {
  Population pop;
  std::vector<CommercialEntry> commercial;
  std::vector<BlockTables> exact;
  std::vector<BlockTables> dp;
};

Round MakeRound(uint64_t seed, size_t index) {
  pso::Rng rng = pso::Rng::StreamAt(pso::HashCombine(seed, 0xCE), index);
  PopulationOptions popts;
  popts.num_blocks = kBlocks;
  popts.min_block_size = 2;
  popts.max_block_size = 9;
  Round round{GeneratePopulation(popts, rng), {}, {}, {}};
  round.commercial =
      SimulateCommercialDatabase(round.pop, CommercialOptions{}, rng);
  for (const Block& b : round.pop.blocks) {
    round.exact.push_back(Tabulate(b));
    round.dp.push_back(TabulateDp(b, kDpEps, rng));
  }
  return round;
}

// One round takes about 4 s on a 4-core x86 box.
size_t NumRounds(int seconds) {
  return static_cast<size_t>(std::max(1, (seconds + 2) / 4));
}

bool SameTables(const BlockTables& a, const BlockTables& b) {
  return a.total == b.total && a.by_age == b.by_age &&
         a.by_sex_age_bucket == b.by_sex_age_bucket &&
         a.by_race == b.by_race && a.by_hispanic == b.by_hispanic &&
         a.by_race_sex_age_bucket == b.by_race_sex_age_bucket &&
         a.by_hispanic_sex_age_bucket == b.by_hispanic_sex_age_bucket &&
         a.median_age == b.median_age && a.noise_slack == b.noise_slack;
}

const uint32_t* ReferenceUnique(uint64_t seed, size_t round) {
  for (const CensusUnique& ref : kCensusUnique) {
    if (ref.seed == seed && ref.round == round) return &ref.blocks_unique;
  }
  return nullptr;
}

struct RoundOutput {
  ReconstructionReport exact_report;
  ReconstructionReport dp_report;
  std::vector<BlockReconstruction> exact_blocks;
  std::vector<std::optional<pso::Result<SatReconstruction>>> sat;
};

struct Pass {
  double window_s = 0.0;
  double csp_s = 0.0;
  double reid_s = 0.0;
  double sat_s = 0.0;
  double first_csp_s = 0.0;  // round 0 only
  uint64_t failed = 0;
  uint64_t completed = 0;
  uint64_t unique = 0;
  uint64_t unique_dp = 0;
  uint64_t budget_hit = 0;
  std::vector<size_t> unique_per_round;
  std::vector<double> op_s;
  pso::metrics::Snapshot registry;
};

// E9's enumeration budgets for exact or DP tables.
ReconstructOptions CspOptions(bool exact, pso::ThreadPool* pool) {
  ReconstructOptions options;
  options.max_solutions = exact ? kExactMaxSolutions : kDpMaxSolutions;
  options.max_nodes = exact ? kExactMaxNodes : kDpMaxNodes;
  options.pool = pool;
  return options;
}

Pass RunPass(const std::vector<Round>& rounds, size_t workers, uint64_t seed,
             WorkloadResult* r) {
  pso::ThreadPool pool(workers);
  const ReconstructOptions exact_opts = CspOptions(true, &pool);
  const ReconstructOptions dp_opts = CspOptions(false, &pool);

  std::vector<RoundOutput> out(rounds.size());
  Pass pass;
  pso::metrics::Registry::Global().ResetAll();
  const Clock::time_point start = Clock::now();
  for (size_t k = 0; k < rounds.size(); ++k) {
    const Round& round = rounds[k];
    RoundOutput& o = out[k];
    const Clock::time_point round_start = Clock::now();
    Clock::time_point t = round_start;
    o.exact_report = ReconstructPopulation(round.pop, round.exact, exact_opts,
                                           &o.exact_blocks);
    pass.csp_s += SecondsSince(t);
    t = Clock::now();
    Reidentify(round.pop, o.exact_blocks, round.commercial, 1, &pool);
    pass.reid_s += SecondsSince(t);
    t = Clock::now();
    std::vector<BlockReconstruction> dp_blocks;
    o.dp_report =
        ReconstructPopulation(round.pop, round.dp, dp_opts, &dp_blocks);
    pass.csp_s += SecondsSince(t);
    t = Clock::now();
    Reidentify(round.pop, dp_blocks, round.commercial, 1, &pool);
    pass.reid_s += SecondsSince(t);
    t = Clock::now();
    o.sat.resize(round.exact.size());
    pso::ParallelFor(&pool, round.exact.size(), [&](size_t begin, size_t end) {
      for (size_t b = begin; b < end; ++b) {
        o.sat[b] = ReconstructBlockSat(round.exact[b]);
      }
    });
    pass.sat_s += SecondsSince(t);
    pass.op_s.push_back(SecondsSince(round_start));
    if (k == 0) pass.first_csp_s = pass.csp_s;
  }
  pass.window_s = SecondsSince(start);
  pso::RecordPoolGauges(&pool);
  pass.registry = pso::metrics::Registry::Global().TakeSnapshot();

  for (size_t k = 0; k < rounds.size(); ++k) {
    const Round& round = rounds[k];
    const RoundOutput& o = out[k];
    pass.unique += o.exact_report.blocks_unique;
    pass.unique_per_round.push_back(o.exact_report.blocks_unique);
    pass.unique_dp += o.dp_report.blocks_unique;
    pass.budget_hit += 2 * kBlocks - o.exact_report.blocks_exhausted -
                       o.dp_report.blocks_exhausted;
    const uint32_t* ref = ReferenceUnique(seed, k);
    if (ref != nullptr && o.exact_report.blocks_unique < *ref) {
      r->Fail("round " + std::to_string(k) + ": " +
              std::to_string(o.exact_report.blocks_unique) +
              " unique exact blocks, reference " + std::to_string(*ref));
    }
    const bool late = pass.op_s[k] > kRoundDeadlineS;
    for (size_t b = 0; b < kBlocks; ++b) {
      const Block& block = round.pop.blocks[b];
      bool good = true;
      // An exhaustive search over exact tables must contain the truth.
      const BlockReconstruction& csp = o.exact_blocks[b];
      if (csp.exhausted && !csp.truth_found) {
        r->Fail("round " + std::to_string(k) + " block " + std::to_string(b) +
                ": exact-table search missed the true block");
        good = false;
      }
      // The SAT solution must reproduce the published tables.
      const auto& sat = *o.sat[b];
      if (!sat.ok() || sat->budget_exhausted || !sat->satisfiable) {
        r->Fail("round " + std::to_string(k) + " block " + std::to_string(b) +
                ": SAT reconstruction did not solve an exact block");
        good = false;
      } else {
        Block rebuilt{block.id,
                      pso::Dataset(block.persons.schema(), sat->reconstructed),
                      {}};
        if (!SameTables(Tabulate(rebuilt), round.exact[b])) {
          r->Fail("round " + std::to_string(k) + " block " +
                  std::to_string(b) +
                  ": SAT reconstruction does not re-tabulate to its tables");
          good = false;
        }
      }
      if (good && !late) {
        ++pass.completed;
      } else {
        ++pass.failed;
      }
    }
  }
  return pass;
}

}  // namespace

WorkloadResult RunCensus(const RunConfig& config) {
  WorkloadResult r;
  const size_t workers =
      std::max<size_t>(1, pso::ThreadPool::HardwareThreads() / 2);
  std::vector<Round> rounds;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    rounds.clear();
    const Clock::time_point t = Clock::now();
    for (size_t k = 0; k < NumRounds(config.seconds); ++k) {
      rounds.push_back(MakeRound(config.seed, k));
    }
    r.setup_s.push_back(SecondsSince(t));
  }

  Pass base = RunPass(rounds, workers, config.seed, &r);
  r.attempted = rounds.size() * kBlocks;
  r.failed = base.failed;
  r.completed = base.completed;
  r.window_s = base.window_s;
  r.op_s = base.op_s;
  r.fingerprint["sat.decisions"] = CounterOf(base.registry, "sat.decisions");
  r.fingerprint["blocks_unique"] = base.unique;
  r.fingerprint["blocks_unique_dp"] = base.unique_dp;
  r.fingerprint["blocks_budget_hit"] = base.budget_hit;
  for (size_t k = 0; k < rounds.size(); ++k) {
    std::printf("round index=%zu seconds=%.3f blocks_unique=%zu\n", k,
                base.op_s[k], base.unique_per_round[k]);
  }
  if (!config.trace) return r;

  Pass traced = RunPass(rounds, workers, config.seed, &r);
  const pso::metrics::Snapshot& s = traced.registry;
  auto& layer = r.layer;
  layer["census.csp_s"] = traced.csp_s;
  layer["census.reid_s"] = traced.reid_s;
  layer["census.sat_s"] = traced.sat_s;
  layer["census.blocks_unique_share"] =
      static_cast<double>(traced.unique) /
      static_cast<double>(rounds.size() * kBlocks);
  layer["census.blocks_exhausted"] = static_cast<double>(traced.budget_hit);
  for (const char* name : {"sat.decisions", "sat.conflicts",
                           "sat.propagations", "sat.learned_clauses"}) {
    layer[name] = static_cast<double>(CounterOf(s, name));
  }
  layer["pool.imbalance"] = GaugeOf(s, "pool.imbalance");
  layer["latency_samples"] = static_cast<double>(traced.op_s.size());
  layer["unattributed_share"] =
      1.0 - (traced.csp_s + traced.reid_s + traced.sat_s) / traced.window_s;
  layer["trace_overhead_share"] = traced.window_s / base.window_s - 1.0;

  // Per-block CSP times, outside both windows: every block of round 0
  // solved alone, with the same budgets and no pool. ParallelFor also runs
  // chunks on the calling thread, so the pool works with workers + 1.
  const Round& first = rounds.front();
  std::vector<double> block_s;
  double block_total_s = 0.0;
  for (size_t b = 0; b < kBlocks; ++b) {
    const pso::Dataset& truth = first.pop.blocks[b].persons;
    for (int kind = 0; kind < 2; ++kind) {
      const Clock::time_point t = Clock::now();
      ReconstructBlock(kind == 0 ? first.exact[b] : first.dp[b], truth,
                       CspOptions(kind == 0, nullptr));
      block_s.push_back(SecondsSince(t));
      block_total_s += block_s.back();
    }
  }
  layer["census.block_ms_p50"] = 1e3 * Quantile(block_s, 0.50);
  layer["census.block_ms_p95"] = 1e3 * Quantile(block_s, 0.95);
  layer["parallel.efficiency"] =
      block_total_s /
      (static_cast<double>(workers + 1) * traced.first_csp_s);
  return r;
}

}  // namespace perfbench
