#include "pso/adversaries.h"

#include <cmath>

#include "common/check.h"
#include "common/hash.h"
#include "kanon/attacks.h"
#include "kanon/generalized.h"
#include "pso/mechanisms.h"

namespace pso {

namespace {

class TrivialHashAdversary final : public Adversary {
 public:
  explicit TrivialHashAdversary(double weight) : weight_(weight) {
    PSO_CHECK(weight > 0.0 && weight < 1.0);
  }
  std::string Name() const override {
    return StrFormatName();
  }
  PredicateRef Attack(const MechanismOutput&, const AttackContext& ctx,
                      Rng& rng) const override {
    uint64_t range = static_cast<uint64_t>(std::llround(1.0 / weight_));
    if (range < 2) range = 2;
    UniversalHash h(rng, range);
    return MakeHashPredicate(ctx.dist->schema(), h, 0);
  }

 private:
  std::string StrFormatName() const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "Trivial(w=%.2e)", weight_);
    return buf;
  }
  double weight_;
};

class FixedValueAdversary final : public Adversary {
 public:
  FixedValueAdversary(size_t attr, int64_t value, std::string attr_name)
      : attr_(attr), value_(value), attr_name_(std::move(attr_name)) {}
  std::string Name() const override { return "FixedValue"; }
  PredicateRef Attack(const MechanismOutput&, const AttackContext&,
                      Rng&) const override {
    return MakeAttributeEquals(attr_, value_, attr_name_);
  }

 private:
  size_t attr_;
  int64_t value_;
  std::string attr_name_;
};

class CountTunedAdversary final : public Adversary {
 public:
  CountTunedAdversary(PredicateRef q, std::string query_name)
      : q_(std::move(q)), query_name_(std::move(query_name)) {
    PSO_CHECK(q_ != nullptr);
  }
  std::string Name() const override { return "CountTuned#" + query_name_; }
  PredicateRef Attack(const MechanismOutput& output,
                      const AttackContext& ctx, Rng& rng) const override {
    const double* count = output.As<double>();
    if (count == nullptr) return nullptr;
    double c = std::max(2.0, std::round(*count));
    // Weight of the refinement ~ w_D(q)/c; concede if that cannot fit the
    // budget (the honest thing: the count output gives nothing better).
    double wq = 1.0;
    if (ctx.product != nullptr) {
      auto exact = q_->ExactWeight(*ctx.product);
      if (exact.has_value()) wq = *exact;
    }
    if (wq / c > ctx.weight_budget) return nullptr;
    UniversalHash h(rng, static_cast<uint64_t>(c));
    return MakeAnd({q_, MakeHashPredicate(ctx.dist->schema(), h, 0)});
  }

 private:
  PredicateRef q_;
  std::string query_name_;
};

class KAnonHashAdversary final : public Adversary {
 public:
  std::string Name() const override { return "KAnonHash(Thm2.10)"; }
  PredicateRef Attack(const MechanismOutput& output,
                      const AttackContext& ctx, Rng& rng) const override {
    const auto* release = output.As<kanon::AnonymizationResult>();
    if (release == nullptr || ctx.product == nullptr) return nullptr;
    // The game verifies weights conservatively (Monte-Carlo upper bound),
    // so aim well below the budget; fall back to the nominal budget only
    // if no class is that light.
    auto attack = kanon::HashIsolationPredicate(
        *release, *ctx.product, ctx.weight_budget / 5.0, rng);
    if (!attack.has_value()) {
      attack = kanon::HashIsolationPredicate(*release, *ctx.product,
                                             ctx.weight_budget, rng);
    }
    if (!attack.has_value()) return nullptr;
    return attack->predicate;
  }
};

class KAnonMinimalityAdversary final : public Adversary {
 public:
  std::string Name() const override { return "KAnonMinimality(Cohen)"; }
  PredicateRef Attack(const MechanismOutput& output,
                      const AttackContext& ctx, Rng&) const override {
    const auto* release = output.As<kanon::AnonymizationResult>();
    if (release == nullptr || ctx.product == nullptr) return nullptr;
    auto attack = kanon::MinimalityIsolationPredicate(
        *release, *ctx.product, ctx.weight_budget / 5.0);
    if (!attack.has_value()) {
      attack = kanon::MinimalityIsolationPredicate(*release, *ctx.product,
                                                   ctx.weight_budget);
    }
    if (!attack.has_value()) return nullptr;
    return attack->predicate;
  }
};

class UniqueRecordAdversary final : public Adversary {
 public:
  std::string Name() const override { return "UniqueRecord"; }
  PredicateRef Attack(const MechanismOutput& output,
                      const AttackContext& ctx, Rng&) const override {
    const Dataset* x = output.As<Dataset>();
    if (x == nullptr || x->empty()) return nullptr;
    // Choose the unique record with the smallest probability under D
    // (weight of RecordEquals == that probability).
    const Record* best = nullptr;
    double best_p = 2.0;
    for (const auto& group : x->GroupIdentical()) {
      if (group.size() != 1) continue;
      const Record& r = x->record(group.front());
      double p = ctx.dist->RecordProbability(r);
      if (p < best_p) {
        best_p = p;
        best = &r;
      }
    }
    if (best == nullptr) return nullptr;
    return MakeRecordEquals(x->schema(), *best);
  }
};

class DecryptPairAdversary final : public Adversary {
 public:
  std::string Name() const override { return "DecryptPair(Thm2.7)"; }
  PredicateRef Attack(const MechanismOutput& output,
                      const AttackContext& ctx, Rng&) const override {
    const auto* bundle = output.As<std::vector<MechanismOutput>>();
    if (bundle == nullptr) return nullptr;
    const std::vector<uint64_t>* ciphertext = nullptr;
    const uint64_t* key = nullptr;
    for (const auto& part : *bundle) {
      if (ciphertext == nullptr) {
        ciphertext = part.As<std::vector<uint64_t>>();
        if (ciphertext != nullptr) continue;
      }
      if (key == nullptr) key = part.As<uint64_t>();
    }
    if (ciphertext == nullptr || key == nullptr) return nullptr;
    Record r(ciphertext->size());
    for (size_t a = 0; a < ciphertext->size(); ++a) {
      r[a] = PadValue(*key, a, static_cast<int64_t>((*ciphertext)[a]));
    }
    if (!ctx.dist->schema().IsValidRecord(r)) return nullptr;
    return MakeRecordEquals(ctx.dist->schema(), r);
  }
};

}  // namespace

AdversaryRef MakeTrivialHashAdversary(double weight) {
  return std::make_shared<TrivialHashAdversary>(weight);
}

AdversaryRef MakeFixedValueAdversary(size_t attr, int64_t value,
                                     std::string attr_name) {
  return std::make_shared<FixedValueAdversary>(attr, value,
                                               std::move(attr_name));
}

AdversaryRef MakeCountTunedAdversary(PredicateRef q,
                                     std::string query_name) {
  return std::make_shared<CountTunedAdversary>(std::move(q),
                                               std::move(query_name));
}

AdversaryRef MakeKAnonHashAdversary() {
  return std::make_shared<KAnonHashAdversary>();
}

AdversaryRef MakeKAnonMinimalityAdversary() {
  return std::make_shared<KAnonMinimalityAdversary>();
}

AdversaryRef MakeUniqueRecordAdversary() {
  return std::make_shared<UniqueRecordAdversary>();
}

AdversaryRef MakeDecryptPairAdversary() {
  return std::make_shared<DecryptPairAdversary>();
}

}  // namespace pso
