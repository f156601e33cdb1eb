// The LP engine: a bounded-variable revised simplex over column-sparse
// constraint storage with a product-form (eta-file) basis inverse.
//
// Where a dense tableau updates every cell of an (m+1) x (cols+1) array
// per pivot, this engine touches only the nonzeros that matter: FTRAN /
// BTRAN walk the eta file, pricing walks CSC columns, and upper bounds
// live as bounds (not rows), so reconstruction L1-fit LPs run in the
// query dimension instead of queries + bound rows. See revised_simplex.h
// for the algorithm sketch and the tuning constants shared with tests.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/progress.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "solver/lp_internal.h"
#include "solver/revised_simplex.h"
#include "solver/sparse_matrix.h"

namespace pso {

namespace {

using revised_simplex_internal::kDegenerateStreak;
using revised_simplex_internal::kRefactorInterval;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-9;        // Reduced-cost / ratio tie tolerance.
constexpr double kPivotTol = 1e-7;   // Minimum acceptable pivot magnitude.
constexpr double kFeasTol = 1e-7;    // Per-variable bound violation slack.
constexpr double kInfeasTol = 1e-6;  // Total violation => kInfeasible.

// Bound perturbation: column j's finite bounds move outward by
// kPerturbScale * (1 + h(j)) * max(1, |bound|), where h(j) in [0, 1) is
// a fixed hash of j under kPerturbKey. Distinct per-column shifts break
// the ties that make a vertex degenerate; the key is a constant, so a
// perturbed solve replays bit for bit.
constexpr double kPerturbScale = 1e-5;
constexpr uint64_t kPerturbKey = 0x5eed0f1b0d5ca1e5ULL;

// Heartbeat cadence in simplex steps (pricing rounds). A work-count
// boundary, never a timer, so heartbeats replay deterministically.
constexpr uint64_t kProgressEvery = 256;

// One product-form eta: the FTRAN image w = B^-1 A_q of an entering
// column, split into the pivot element and the off-pivot nonzeros.
// Applying the eta forward divides the pivot position by pivot_value and
// eliminates the off-pivot rows; applying it transposed is one sparse dot
// product. Both skip entirely when the pivot position is zero.
struct Eta {
  size_t pivot_row = 0;
  double pivot_value = 1.0;
  std::vector<std::pair<size_t, double>> others;
};

// Pricing outcome: the entering column (SIZE_MAX = none eligible) plus
// the phase-1 infeasibility summary gathered while building c_B.
struct Pricing {
  size_t enter = SIZE_MAX;
  double reduced = 0.0;
  bool any_infeasible = false;
  double total_violation = 0.0;
};

// Ratio-test outcome: the step length, the blocking row (has_leave) or a
// bound flip (!has_leave, finite t) or an unbounded ray.
struct Ratio {
  bool unbounded = false;
  bool has_leave = false;
  size_t leave_row = 0;
  bool leave_at_upper = false;
  double t = 0.0;
};

// All per-solve state. Column indexing: [0, n) structural, [n, n+m)
// logical (one per row, identity coefficient).
class SimplexState {
 public:
  SimplexState(const LpInstance& model, lp_internal::SolveScope* scope)
      : scope_(scope), pivot_work_(&scope->pivot_work) {
    n_ = model.variables.size();
    m_ = model.rows.size();
    ncols_ = n_ + m_;

    lower_.resize(ncols_);
    upper_.resize(ncols_);
    cost_.assign(ncols_, 0.0);
    rhs_.resize(m_);

    std::vector<SparseTriplet> triplets;
    size_t nnz_guess = m_;
    for (const LpInstance::Row& row : model.rows) nnz_guess += row.coeffs.size();
    triplets.reserve(nnz_guess);
    for (size_t j = 0; j < n_; ++j) {
      lower_[j] = model.variables[j].lower;
      upper_[j] = model.variables[j].upper;
      cost_[j] = model.variables[j].cost;
    }
    for (size_t i = 0; i < m_; ++i) {
      const LpInstance::Row& row = model.rows[i];
      for (const auto& [idx, coeff] : row.coeffs) {
        triplets.push_back(SparseTriplet{i, idx, coeff});
      }
      triplets.push_back(SparseTriplet{i, n_ + i, 1.0});
      rhs_[i] = row.rhs;
      // Relation -> logical bounds: A x + s = b.
      switch (row.rel) {
        case Relation::kLessEq:
          lower_[n_ + i] = 0.0;
          upper_[n_ + i] = kInf;
          break;
        case Relation::kGreaterEq:
          lower_[n_ + i] = -kInf;
          upper_[n_ + i] = 0.0;
          break;
        case Relation::kEqual:
          lower_[n_ + i] = 0.0;
          upper_[n_ + i] = 0.0;
          break;
      }
    }
    cols_ = SparseMatrix::FromTriplets(m_, ncols_, triplets);

    status_.assign(ncols_, LpVarStatus::kAtLower);
    basic_.assign(m_, SIZE_MAX);
    x_.assign(ncols_, 0.0);
    work_.Resize(m_);
    dual_.assign(m_, 0.0);
  }

  // ---- Eta file ----------------------------------------------------

  // v <- B^-1 v (apply etas in file order).
  void ApplyEtasForward(SparseVector& v) {
    for (const Eta& e : etas_) {
      double vp = v[e.pivot_row];
      ++*pivot_work_;
      if (vp == 0.0) continue;
      double t = vp / e.pivot_value;
      v.Set(e.pivot_row, t);
      for (const auto& [r, val] : e.others) v.Add(r, -val * t);
      *pivot_work_ += e.others.size();
    }
  }

  // y <- B^-T y (apply transposed etas in reverse file order).
  void ApplyEtasTranspose(std::vector<double>& y) {
    for (size_t k = etas_.size(); k > 0; --k) {
      const Eta& e = etas_[k - 1];
      double acc = y[e.pivot_row];
      for (const auto& [r, val] : e.others) acc -= val * y[r];
      y[e.pivot_row] = acc / e.pivot_value;
      *pivot_work_ += e.others.size() + 1;
    }
  }

  // work_ <- B^-1 A_j.
  void Ftran(size_t j) {
    work_.Clear();
    for (size_t k = cols_.ColumnBegin(j); k < cols_.ColumnEnd(j); ++k) {
      work_.Add(cols_.EntryRow(k), cols_.EntryValue(k));
    }
    *pivot_work_ += cols_.ColumnNnz(j);
    ApplyEtasForward(work_);
  }

  // ---- Factorization -----------------------------------------------

  // Rebuilds the eta file from scratch for the current basic column set
  // (status_ == kBasic), reassigning basic_ rows via partial pivoting.
  // Columns are processed in ascending-nnz order (ties by index) to keep
  // fill low; a column whose pivot candidates are all below kPivotTol is
  // dropped from the basis and the logical of a still-unpivoted row takes
  // its place (basis repair). Returns false only if repair fails too.
  bool Refactorize() {
    metrics::GetCounter("lp.refactorizations").Add(1);
    ++refactor_count_;
    etas_.clear();
    pivots_since_refactor_ = 0;

    std::vector<size_t> cols;
    cols.reserve(m_);
    for (size_t j = 0; j < ncols_; ++j) {
      if (status_[j] == LpVarStatus::kBasic) cols.push_back(j);
    }
    PSO_CHECK(cols.size() == m_);
    std::sort(cols.begin(), cols.end(), [this](size_t a, size_t b) {
      size_t na = cols_.ColumnNnz(a);
      size_t nb = cols_.ColumnNnz(b);
      return na != nb ? na < nb : a < b;
    });

    row_assigned_.assign(m_, false);
    basic_.assign(m_, SIZE_MAX);
    std::vector<size_t> dropped;
    for (size_t j : cols) {
      if (!FactorColumn(j)) dropped.push_back(j);
    }
    for (size_t j : dropped) {
      // The column is dependent on earlier basis columns: park it at a
      // finite bound and promote the logical of some unpivoted row.
      status_[j] = std::isfinite(lower_[j]) ? LpVarStatus::kAtLower
                                            : LpVarStatus::kAtUpper;
      x_[j] = NonbasicValue(j);
      bool repaired = false;
      for (size_t p = 0; p < m_ && !repaired; ++p) {
        if (row_assigned_[p]) continue;
        if (status_[n_ + p] == LpVarStatus::kBasic) continue;
        status_[n_ + p] = LpVarStatus::kBasic;
        if (FactorColumn(n_ + p)) {
          repaired = true;
        } else {
          status_[n_ + p] = std::isfinite(lower_[n_ + p])
                                ? LpVarStatus::kAtLower
                                : LpVarStatus::kAtUpper;
        }
      }
      if (!repaired) return false;
    }
    return true;
  }

  // Factors one basis column: FTRAN against the etas so far, pivot on the
  // largest-magnitude entry over unassigned rows (smallest row on ties).
  bool FactorColumn(size_t j) {
    Ftran(j);
    size_t best_row = SIZE_MAX;
    double best_mag = kPivotTol;
    for (size_t p : work_.nonzeros()) {
      if (row_assigned_[p]) continue;
      double mag = std::fabs(work_[p]);
      if (mag > best_mag || (mag == best_mag && best_row != SIZE_MAX &&
                             p < best_row)) {
        best_mag = mag;
        best_row = p;
      }
    }
    if (best_row == SIZE_MAX) return false;
    AppendEta(best_row);
    row_assigned_[best_row] = true;
    basic_[best_row] = j;
    return true;
  }

  // Records work_ as an eta pivoting on row p.
  void AppendEta(size_t p) {
    Eta e;
    e.pivot_row = p;
    e.pivot_value = work_[p];
    for (size_t r : work_.nonzeros()) {
      if (r != p && work_[r] != 0.0) e.others.emplace_back(r, work_[r]);
    }
    etas_.push_back(std::move(e));
  }

  // ---- State helpers -----------------------------------------------

  double NonbasicValue(size_t j) const {
    return status_[j] == LpVarStatus::kAtUpper ? upper_[j] : lower_[j];
  }

  // Parks every nonbasic column on the bound its status names.
  void SnapNonbasic() {
    for (size_t j = 0; j < ncols_; ++j) {
      if (status_[j] != LpVarStatus::kBasic) x_[j] = NonbasicValue(j);
    }
  }

  // Solves B x_B = b - A_N x_N and installs the basic values.
  void ComputeBasicValues() {
    work_.Clear();
    for (size_t i = 0; i < m_; ++i) {
      if (rhs_[i] != 0.0) work_.Set(i, rhs_[i]);
    }
    for (size_t j = 0; j < ncols_; ++j) {
      if (status_[j] == LpVarStatus::kBasic || x_[j] == 0.0) continue;
      for (size_t k = cols_.ColumnBegin(j); k < cols_.ColumnEnd(j); ++k) {
        work_.Add(cols_.EntryRow(k), -cols_.EntryValue(k) * x_[j]);
      }
      *pivot_work_ += cols_.ColumnNnz(j);
    }
    ApplyEtasForward(work_);
    for (size_t i = 0; i < m_; ++i) x_[basic_[i]] = work_[i];
  }

  double Objective() const {
    double obj = 0.0;
    for (size_t j = 0; j < n_; ++j) obj += cost_[j] * x_[j];
    return obj;
  }

  double TotalViolation() const {
    double total = 0.0;
    for (size_t i = 0; i < m_; ++i) {
      size_t j = basic_[i];
      if (x_[j] < lower_[j] - kFeasTol) total += lower_[j] - x_[j];
      if (x_[j] > upper_[j] + kFeasTol) total += x_[j] - upper_[j];
    }
    return total;
  }

  // ---- Start bases -------------------------------------------------

  // All-logical basis plus a singleton crash: an equality row whose
  // +1-coefficient structural appears in no other row (and has no upper
  // bound to violate) starts that structural basic. L1-fit instances
  // (residual splitting u - v per query) crash completely this way and,
  // with nonnegative query answers, start feasible — phase 1 is a no-op.
  void ColdStart() {
    for (size_t j = 0; j < n_; ++j) {
      status_[j] = LpVarStatus::kAtLower;
    }
    for (size_t i = 0; i < m_; ++i) {
      status_[n_ + i] = LpVarStatus::kBasic;
    }
    // Crash pass, column-major: a structural with exactly one entry,
    // coefficient ~1, infinite upper bound, landing in an equality row
    // whose logical is still basic.
    for (size_t j = 0; j < n_; ++j) {
      if (cols_.ColumnNnz(j) != 1 || upper_[j] != kInf) continue;
      size_t k = cols_.ColumnBegin(j);
      if (std::fabs(cols_.EntryValue(k) - 1.0) > 1e-12) continue;
      size_t r = cols_.EntryRow(k);
      if (lower_[n_ + r] != 0.0 || upper_[n_ + r] != 0.0) continue;
      if (status_[n_ + r] != LpVarStatus::kBasic) continue;
      status_[n_ + r] = LpVarStatus::kAtLower;
      status_[j] = LpVarStatus::kBasic;
    }
    for (size_t j = 0; j < ncols_; ++j) {
      x_[j] = status_[j] == LpVarStatus::kBasic ? 0.0 : NonbasicValue(j);
    }
  }

  // Installs a warm-start basis. A basis from a smaller instance is
  // padded (new rows -> logical basic, new variables -> at lower bound);
  // statuses parked on an infinite bound are coerced to the finite side.
  // Returns false (leaving state unspecified) if the basis is mis-shaped
  // or singular — the caller cold-starts.
  bool WarmStart(const LpBasis& basis) {
    if (basis.structurals.size() > n_ || basis.logicals.size() > m_) {
      return false;
    }
    for (size_t j = 0; j < n_; ++j) {
      status_[j] = j < basis.structurals.size() ? basis.structurals[j]
                                                : LpVarStatus::kAtLower;
    }
    for (size_t i = 0; i < m_; ++i) {
      status_[n_ + i] = i < basis.logicals.size() ? basis.logicals[i]
                                                  : LpVarStatus::kBasic;
    }
    size_t basics = 0;
    for (size_t j = 0; j < ncols_; ++j) {
      if (status_[j] == LpVarStatus::kBasic) {
        ++basics;
        continue;
      }
      if (status_[j] == LpVarStatus::kAtLower && !std::isfinite(lower_[j])) {
        status_[j] = LpVarStatus::kAtUpper;
      } else if (status_[j] == LpVarStatus::kAtUpper &&
                 !std::isfinite(upper_[j])) {
        status_[j] = LpVarStatus::kAtLower;
      }
    }
    if (basics != m_) return false;
    if (!Refactorize()) return false;
    SnapNonbasic();
    ComputeBasicValues();
    metrics::GetCounter("lp.warm_starts").Add(1);
    return true;
  }

  void ExportBasis(LpBasis* out) const {
    out->structurals.assign(status_.begin(), status_.begin() + n_);
    out->logicals.assign(status_.begin() + n_, status_.end());
  }

  // ---- Simplex core ------------------------------------------------

  // Computes duals for the current phase objective and scans nonbasic
  // columns for the best eligible entering candidate. Phase-1 costs are
  // the composite infeasibility gradient on basic variables (zero on
  // nonbasic ones), so feasibility, once attained, is preserved.
  Pricing Price(bool phase1, bool bland) {
    Pricing out;
    bool any_cb = false;
    for (size_t i = 0; i < m_; ++i) {
      size_t j = basic_[i];
      double cb = 0.0;
      if (phase1) {
        if (x_[j] < lower_[j] - kFeasTol) {
          cb = -1.0;
          out.any_infeasible = true;
          out.total_violation += lower_[j] - x_[j];
        } else if (x_[j] > upper_[j] + kFeasTol) {
          cb = 1.0;
          out.any_infeasible = true;
          out.total_violation += x_[j] - upper_[j];
        }
      } else {
        cb = cost_[j];
      }
      dual_[i] = cb;
      any_cb = any_cb || cb != 0.0;
    }
    *pivot_work_ += m_;
    if (phase1 && !out.any_infeasible) return out;  // Feasible: phase done.
    if (any_cb) ApplyEtasTranspose(dual_);

    double best = kEps;
    for (size_t j = 0; j < ncols_; ++j) {
      if (status_[j] == LpVarStatus::kBasic) continue;
      if (upper_[j] - lower_[j] <= 0.0) continue;  // Fixed: cannot move.
      double d = phase1 ? 0.0 : cost_[j];
      if (any_cb) {
        for (size_t k = cols_.ColumnBegin(j); k < cols_.ColumnEnd(j); ++k) {
          d -= dual_[cols_.EntryRow(k)] * cols_.EntryValue(k);
        }
        *pivot_work_ += cols_.ColumnNnz(j);
      }
      bool eligible = status_[j] == LpVarStatus::kAtLower ? d < -kEps
                                                          : d > kEps;
      if (!eligible) continue;
      if (bland) {  // First eligible index: guarantees termination.
        out.enter = j;
        out.reduced = d;
        break;
      }
      if (std::fabs(d) > best) {
        best = std::fabs(d);
        out.enter = j;
        out.reduced = d;
      }
    }
    return out;
  }

  // Bounded-variable ratio test on work_ = B^-1 A_q. `dir` is +1 when q
  // enters rising off its lower bound, -1 when falling off its upper. In
  // phase 1 an infeasible basic variable blocks only when the step would
  // carry it *to* its violated bound (crossing would flip its gradient);
  // feasible basics block at whichever bound the step pushes them toward.
  // The entering variable's own bound gap competes as a bound flip.
  //
  // Two passes: the step is the smallest blocking ratio, so no basic
  // variable passes its bound; then the leaving row is the smallest basic
  // index among the near-ties. A near-tie is measured in the moving
  // variable's units (kEps / max(1, |alpha|) in step length), so snapping
  // the leaving variable onto its bound moves it by at most kEps, however
  // large alpha is.
  Ratio RatioTest(size_t q, bool phase1, double dir) {
    // The step at which row p blocks (false: it never does).
    auto blocks = [&](size_t p, double* t, bool* hit_upper) {
      const double alpha = dir * work_[p];  // x_basic(t) = x_basic - t*alpha.
      if (std::fabs(alpha) <= kPivotTol) return false;
      const size_t j = basic_[p];
      const double xj = x_[j];
      if (phase1 && xj < lower_[j] - kFeasTol) {
        if (alpha >= 0.0) return false;  // Worsens; objective counts it.
        *t = (xj - lower_[j]) / alpha;
        *hit_upper = false;
      } else if (phase1 && xj > upper_[j] + kFeasTol) {
        if (alpha <= 0.0) return false;
        *t = (xj - upper_[j]) / alpha;
        *hit_upper = true;
      } else if (alpha > 0.0) {
        if (!std::isfinite(lower_[j])) return false;
        *t = (xj - lower_[j]) / alpha;
        *hit_upper = false;
      } else {
        if (!std::isfinite(upper_[j])) return false;
        *t = (xj - upper_[j]) / alpha;
        *hit_upper = true;
      }
      if (*t < 0.0) *t = 0.0;  // Tolerance-level infeasibility: degenerate.
      return true;
    };

    Ratio out;
    const double gap = upper_[q] - lower_[q];  // May be +inf.
    double t_min = gap;
    double t = 0.0;
    bool hit_upper = false;
    for (size_t p : work_.nonzeros()) {
      if (blocks(p, &t, &hit_upper)) t_min = std::min(t_min, t);
    }
    // Near-ties with the bound flip go to a basis pivot: it makes
    // progress the dual simplex can reuse.
    for (size_t p : work_.nonzeros()) {
      if (!blocks(p, &t, &hit_upper)) continue;
      if (t > t_min + kEps / std::max(1.0, std::fabs(work_[p]))) continue;
      if (out.has_leave && basic_[p] >= basic_[out.leave_row]) continue;
      out.has_leave = true;
      out.leave_row = p;
      out.leave_at_upper = hit_upper;
    }
    if (!out.has_leave && !std::isfinite(t_min)) {
      out.unbounded = true;
      return out;
    }
    out.t = t_min;
    return out;
  }

  // Executes one entering step: FTRAN, ratio test, then either a bound
  // flip (no basis change, not counted as an iteration) or a pivot
  // (basic set update + eta append + periodic refactorization). A pivot
  // past the max_pivots budget is refused with kResourceExhausted; bound
  // flips are not pivots and always go through.
  Status Step(size_t q, bool phase1, size_t* degenerate_streak,
              lp_internal::PivotSink* sink) {
    double dir = status_[q] == LpVarStatus::kAtLower ? 1.0 : -1.0;
    Ftran(q);
    Ratio r = RatioTest(q, phase1, dir);
    if (r.unbounded) {
      if (phase1) {
        // A phase-1 ray cannot exist (every improving direction is blocked
        // by the infeasible variable generating it); reaching here means
        // the factorization has degraded beyond the tolerances.
        return Status::Internal("phase-1 ray: numerically singular basis");
      }
      return Status::Unbounded(StrFormat(
          "objective improves without bound along column %zu", q));
    }
    if (r.has_leave && iterations_ >= max_pivots_) {
      PSO_LOG(WARN).Field("pivots", iterations_)
          << "LP pivot budget exhausted";
      return Status::ResourceExhausted(
          StrFormat("pivot budget of %zu exhausted", max_pivots_));
    }

    // Move the basic variables along the step.
    if (r.t != 0.0) {
      for (size_t p : work_.nonzeros()) {
        double wv = work_[p];
        if (wv == 0.0) continue;
        x_[basic_[p]] -= r.t * dir * wv;
      }
      *pivot_work_ += work_.nonzeros().size();
    }

    if (!r.has_leave) {
      // Bound flip: q traverses its whole gap and parks on the other side.
      status_[q] = dir > 0.0 ? LpVarStatus::kAtUpper : LpVarStatus::kAtLower;
      x_[q] = NonbasicValue(q);
      metrics::GetCounter("lp.bound_flips").Add(1);
      return Status::Ok();
    }

    size_t p = r.leave_row;
    size_t leaving = basic_[p];
    x_[q] += dir * r.t;
    status_[leaving] =
        r.leave_at_upper ? LpVarStatus::kAtUpper : LpVarStatus::kAtLower;
    x_[leaving] = NonbasicValue(leaving);  // Snap off rounding drift.
    status_[q] = LpVarStatus::kBasic;
    AppendEta(p);
    basic_[p] = q;
    metrics::GetCounter("lp.eta_updates").Add(1);
    ++pivots_since_refactor_;
    *degenerate_streak = r.t <= kEps ? *degenerate_streak + 1 : 0;
    size_t pivot_index = iterations_;
    ++iterations_;
    scope_->total_iterations = iterations_;
    if (phase1) ++scope_->phase1_iterations;
    if (sink != nullptr && sink->ring != nullptr) {
      sink->OnPivot(pivot_index, q, leaving,
                    phase1 ? TotalViolation() : Objective());
    }
    if (pivots_since_refactor_ >= kRefactorInterval) {
      if (!Refactorize()) {
        return Status::Internal("basis refactorization failed");
      }
      ComputeBasicValues();
    }
    return Status::Ok();
  }

  // ---- Bound perturbation -------------------------------------------

  // Widens every finite bound of every non-fixed column outward (see
  // kPerturbScale), parks the nonbasic columns on their new bounds and
  // recomputes x_B. The basis is unchanged, but x_B may now violate the
  // widened bounds, so phase 1 runs next.
  void Perturb() {
    metrics::GetCounter("lp.perturbations").Add(1);
    saved_lower_ = lower_;
    saved_upper_ = upper_;
    for (size_t j = 0; j < ncols_; ++j) {
      if (upper_[j] - lower_[j] <= 0.0) continue;  // Fixed: stays fixed.
      const double h =
          static_cast<double>(MixUint64(kPerturbKey + j) >> 11) * 0x1.0p-53;
      const double scale = kPerturbScale * (1.0 + h);
      if (std::isfinite(lower_[j])) {
        lower_[j] -= scale * std::max(1.0, std::fabs(lower_[j]));
      }
      if (std::isfinite(upper_[j])) {
        upper_[j] += scale * std::max(1.0, std::fabs(upper_[j]));
      }
    }
    SnapNonbasic();
    ComputeBasicValues();
  }

  // Puts the original bounds back, parks the nonbasic columns on them and
  // refreshes the factorization and x_B for the clean-up pass.
  Status Unperturb() {
    lower_ = std::move(saved_lower_);
    upper_ = std::move(saved_upper_);
    SnapNonbasic();
    if (!Refactorize()) {
      return Status::Internal("basis refactorization failed");
    }
    ComputeBasicValues();
    return Status::Ok();
  }

  // ---- Driver ------------------------------------------------------

  void Tick(double objective, double phase) {
    progress_->Tick(
        steps_, {{"pivots", static_cast<double>(iterations_)},
                 {"refactorizations", static_cast<double>(refactor_count_)},
                 {"objective", objective},
                 {"phase", phase}});
  }

  // Phase 1: drives out basic bound violations, with Bland's rule after
  // a degenerate streak. The span always opens, even for a feasible
  // (crashed / warm) start: a zero-pivot phase 1 documents "feasible by
  // construction".
  Status Phase1() {
    trace::Span span("lp.phase1");
    lp_internal::PivotSink sink{ring_, /*phase=*/1};
    const size_t first_pivot = iterations_;
    size_t degenerate_streak = 0;
    while (true) {
      ++steps_;
      Pricing pr = Price(/*phase1=*/true,
                         degenerate_streak > kDegenerateStreak);
      if (!pr.any_infeasible) break;
      if (pr.enter == SIZE_MAX) {
        if (pr.total_violation > kInfeasTol) {
          PSO_LOG(DEBUG).Field("residual", pr.total_violation)
              << "LP infeasible";
          return Status::Infeasible(
              StrFormat("phase-1 residual %.3g", pr.total_violation));
        }
        break;  // Violations below tolerance: accept as feasible.
      }
      Status step = Step(pr.enter, /*phase1=*/true, &degenerate_streak,
                         &sink);
      if (!step.ok()) return step;
      Tick(TotalViolation(), 1.0);
    }
    if (span.active()) {
      span.Arg("pivots", std::to_string(iterations_ - first_pivot));
    }
    return Status::Ok();
  }

  // Phase 2: optimizes from a feasible basis. When a degenerate streak
  // passes kDegenerateStreak, `bland` switches pricing to Bland's rule
  // (the clean-up's termination guarantee); otherwise the pass stops
  // early and sets *stalled so the caller can perturb.
  Status Phase2(bool bland, bool* stalled) {
    trace::Span span("lp.phase2");
    lp_internal::PivotSink sink{ring_, /*phase=*/2};
    const size_t first_pivot = iterations_;
    size_t degenerate_streak = 0;
    *stalled = false;
    while (true) {
      if (!bland && degenerate_streak > kDegenerateStreak) {
        *stalled = true;
        break;
      }
      ++steps_;
      Pricing pr = Price(/*phase1=*/false,
                         degenerate_streak > kDegenerateStreak);
      if (pr.enter == SIZE_MAX) break;  // Optimal.
      Status step = Step(pr.enter, /*phase1=*/false, &degenerate_streak,
                         &sink);
      if (!step.ok()) return step;
      Tick(Objective(), 2.0);
    }
    if (span.active()) {
      span.Arg("pivots", std::to_string(iterations_ - first_pivot));
    }
    return Status::Ok();
  }

  // Phase 1, then phase 2. A phase-2 stall on a degenerate vertex gets
  // one bound perturbation: the perturbed problem is optimized (a second
  // stall just ends that pass), then the original bounds come back and a
  // clean-up phase 1 + phase 2 finishes from the perturbed optimum's
  // basis. Bounds only widen, so the perturbed problem's feasible set
  // and recession cone contain the original's: every status except an
  // exhausted budget is left to the clean-up, which alone decides the
  // status and the objective.
  Status Optimize() {
    Status st = Phase1();
    if (!st.ok()) return st;
    bool stalled = false;
    st = Phase2(/*bland=*/false, &stalled);
    if (!st.ok() || !stalled) return st;

    Perturb();
    st = Phase1();
    if (st.ok()) st = Phase2(/*bland=*/false, &stalled);
    if (st.code() == StatusCode::kResourceExhausted) return st;
    st = Unperturb();
    if (st.ok()) st = Phase1();
    if (st.ok()) st = Phase2(/*bland=*/true, &stalled);
    return st;
  }

  Result<LpSolution> Run(const LpSolveOptions& options,
                         trace::RingBuffer<LpPivotStep>* ring) {
    bool warm = false;
    if (options.warm_start != nullptr && !options.warm_start->empty()) {
      warm = WarmStart(*options.warm_start);
    }
    if (!warm) {
      ColdStart();
      if (!Refactorize()) {
        // The cold basis is triangular by construction; this cannot fire
        // unless the instance itself is numerically broken.
        return Status::Internal("cold-start basis is singular");
      }
      ComputeBasicValues();
    }

    max_pivots_ = options.max_pivots;
    ring_ = ring;
    progress::ScopedSolve solve_guard;
    progress::ProgressReporter progress("simplex", kProgressEvery);
    progress_ = &progress;
    Status st = Optimize();
    progress_ = nullptr;
    if (!st.ok()) return st;

    LpSolution sol;
    sol.values.assign(n_, 0.0);
    for (size_t j = 0; j < n_; ++j) {
      // Clamp tolerance-level drift so callers can rely on bounds.
      double v = x_[j];
      if (v < lower_[j]) v = lower_[j];
      if (v > upper_[j]) v = upper_[j];
      sol.values[j] = v;
    }
    double obj = 0.0;
    for (size_t j = 0; j < n_; ++j) obj += cost_[j] * sol.values[j];
    sol.objective = obj;
    sol.iterations = iterations_;
    if (options.final_basis != nullptr) ExportBasis(options.final_basis);
    return sol;
  }

 private:
  size_t n_ = 0;
  size_t m_ = 0;
  size_t ncols_ = 0;
  SparseMatrix cols_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<double> cost_;
  std::vector<double> rhs_;

  std::vector<LpVarStatus> status_;
  std::vector<size_t> basic_;
  std::vector<double> x_;
  std::vector<Eta> etas_;
  std::vector<bool> row_assigned_;
  SparseVector work_;
  std::vector<double> dual_;
  std::vector<double> saved_lower_;  // Original bounds while perturbed.
  std::vector<double> saved_upper_;
  size_t pivots_since_refactor_ = 0;
  size_t iterations_ = 0;
  size_t refactor_count_ = 0;
  size_t steps_ = 0;  // Pricing rounds: the heartbeat work count.
  size_t max_pivots_ = 0;
  lp_internal::SolveScope* scope_;
  size_t* pivot_work_;
  trace::RingBuffer<LpPivotStep>* ring_ = nullptr;
  progress::ProgressReporter* progress_ = nullptr;
};

}  // namespace

Result<LpSolution> SolveRevisedSimplex(const LpInstance& model,
                                       const LpSolveOptions& options) {
  lp_internal::SolveScope scope;
  trace::Span solve_span("lp.solve");
  std::unique_ptr<trace::RingBuffer<LpPivotStep>> pivot_ring;
  if (solve_span.active()) {
    solve_span.Arg("vars", std::to_string(model.variables.size()));
    solve_span.Arg("constraints", std::to_string(model.rows.size()));
    pivot_ring = std::make_unique<trace::RingBuffer<LpPivotStep>>(
        kPivotTraceCapacity);
  }
  metrics::GetCounter("lp.sparse.solves").Add(1);
  SimplexState state(model, &scope);
  Result<LpSolution> result = state.Run(options, pivot_ring.get());
  if (result.ok() && pivot_ring != nullptr) {
    result->pivot_trace = pivot_ring->Drain();
    solve_span.Arg("pivots", std::to_string(result->iterations));
  }
  return result;
}

}  // namespace pso
