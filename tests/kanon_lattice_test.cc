// Tests for the l-diversity-enforcing Mondrian option.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators.h"
#include "kanon/checks.h"
#include "kanon/mondrian.h"

namespace pso::kanon {
namespace {

struct MondrianFixture {
  Universe universe = MakeGicMedicalUniverse(50);
  Dataset data;
  HierarchySet hierarchies;

  explicit MondrianFixture(uint64_t seed, size_t n)
      : data(Sample(universe, seed, n)),
        hierarchies(HierarchySet::Defaults(universe.schema)) {}

  static Dataset Sample(const Universe& u, uint64_t seed, size_t n) {
    Rng rng(seed);
    return u.distribution.SampleDataset(n, rng);
  }
};

TEST(MondrianLDiversityTest, EnforcedLeavesAreDiverse) {
  MondrianFixture s(6, 400);
  MondrianOptions opts;
  opts.k = 4;
  opts.qi_attrs = {0, 1, 2, 3};
  opts.l_diversity = 2;
  opts.sensitive_attr = 4;  // diagnosis
  auto result = MondrianAnonymize(s.data, s.hierarchies, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(IsLDiverse(s.data, result->classes, 4, 2));
  for (const auto& cls : result->classes) EXPECT_GE(cls.size(), 4u);
}

TEST(MondrianLDiversityTest, EnforcementCoarsensThePartition) {
  MondrianFixture s(7, 400);
  MondrianOptions plain;
  plain.k = 4;
  plain.qi_attrs = {0, 1, 2, 3};
  MondrianOptions diverse = plain;
  diverse.l_diversity = 3;
  diverse.sensitive_attr = 4;
  auto p = MondrianAnonymize(s.data, s.hierarchies, plain);
  auto d = MondrianAnonymize(s.data, s.hierarchies, diverse);
  ASSERT_TRUE(p.ok() && d.ok());
  EXPECT_LE(d->classes.size(), p->classes.size());
  EXPECT_TRUE(IsLDiverse(s.data, d->classes, 4, 3));
}

TEST(MondrianLDiversityTest, InfeasibleWhenDataNotDiverse) {
  // All records share one diagnosis value.
  Universe u = MakeGicMedicalUniverse(50);
  Rng rng(8);
  Dataset data{u.schema};
  for (int i = 0; i < 50; ++i) {
    Record r = u.distribution.Sample(rng);
    r[4] = 0;
    data.Append(r);
  }
  MondrianOptions opts;
  opts.k = 4;
  opts.qi_attrs = {0, 1};
  opts.l_diversity = 2;
  opts.sensitive_attr = 4;
  auto result =
      MondrianAnonymize(data, HierarchySet::Defaults(u.schema), opts);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

}  // namespace
}  // namespace pso::kanon
