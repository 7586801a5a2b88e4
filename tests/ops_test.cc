#include "rel/ops.h"

#include <gtest/gtest.h>

namespace chainsplit {
namespace {

Relation MakeEdges(std::vector<std::pair<TermId, TermId>> pairs) {
  Relation rel(2);
  for (auto [a, b] : pairs) rel.Insert({a, b});
  return rel;
}

TEST(OpsTest, HashJoinOnSingleKey) {
  Relation left = MakeEdges({{1, 2}, {2, 3}, {3, 4}});
  Relation right = MakeEdges({{2, 20}, {3, 30}, {9, 90}});
  Relation out(2);
  // left.1 == right.0; output (left.0, right.1).
  HashJoin(left, right, {{1, 0}}, {0, 3}, &out);
  EXPECT_EQ(out.size(), 2);
  EXPECT_TRUE(out.Contains({1, 20}));
  EXPECT_TRUE(out.Contains({2, 30}));
}

TEST(OpsTest, HashJoinMultiKey) {
  Relation left(2);
  left.Insert({1, 2});
  left.Insert({1, 3});
  Relation right(2);
  right.Insert({1, 2});
  right.Insert({2, 2});
  Relation out(2);
  HashJoin(left, right, {{0, 0}, {1, 1}}, {0, 1}, &out);
  EXPECT_EQ(out.size(), 1);
  EXPECT_TRUE(out.Contains({1, 2}));
}

TEST(OpsTest, EmptyKeysIsCrossProduct) {
  Relation left = MakeEdges({{1, 2}, {3, 4}});
  Relation right = MakeEdges({{5, 6}, {7, 8}, {9, 10}});
  Relation out(4);
  HashJoin(left, right, {}, {0, 1, 2, 3}, &out);
  EXPECT_EQ(out.size(), 6);  // 2 x 3 — the merged-chain blowup of §1.1
}

TEST(OpsTest, SelectFilters) {
  Relation rel = MakeEdges({{1, 2}, {2, 1}, {3, 3}});
  Relation out(2);
  Select(rel, [](const Tuple& t) { return t[0] < t[1]; }, &out);
  EXPECT_EQ(out.size(), 1);
  EXPECT_TRUE(out.Contains({1, 2}));
}

TEST(OpsTest, ProjectDeduplicates) {
  Relation rel = MakeEdges({{1, 2}, {1, 3}, {2, 4}});
  Relation out(1);
  Project(rel, {0}, &out);
  EXPECT_EQ(out.size(), 2);
}

TEST(OpsTest, ProjectReordersColumns) {
  Relation rel = MakeEdges({{1, 2}});
  Relation out(2);
  Project(rel, {1, 0}, &out);
  EXPECT_TRUE(out.Contains({2, 1}));
}

TEST(OpsTest, DifferenceIsDeltaStep) {
  Relation a = MakeEdges({{1, 2}, {3, 4}, {5, 6}});
  Relation b = MakeEdges({{3, 4}});
  Relation out(2);
  Difference(a, b, &out);
  EXPECT_EQ(out.size(), 2);
  EXPECT_FALSE(out.Contains({3, 4}));
}

TEST(OpsTest, SameTuplesIgnoresOrder) {
  Relation a = MakeEdges({{1, 2}, {3, 4}});
  Relation b = MakeEdges({{3, 4}, {1, 2}});
  EXPECT_TRUE(SameTuples(a, b));
  b.Insert({5, 6});
  EXPECT_FALSE(SameTuples(a, b));
}

TEST(OpsTest, JoinAlgebraicIdentity) {
  // |R join S| on a key equals sum over key values of |R_k| * |S_k|.
  Relation r(2);
  Relation s(2);
  for (TermId i = 0; i < 30; ++i) {
    r.Insert({i % 3, i});
    s.Insert({i % 3, 100 + i});
  }
  Relation out(2);
  HashJoin(r, s, {{0, 0}}, {1, 3}, &out);
  EXPECT_EQ(out.size(), 3 * 10 * 10);
}

}  // namespace
}  // namespace chainsplit
