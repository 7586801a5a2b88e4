#include "rel/ops.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/thread_pool.h"

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

/// Randomized differential test: the partitioned parallel path must
/// reproduce the serial oracle (the same join on a 1-thread pool)
/// byte-for-byte — same tuples, same row order — across workload
/// shapes (sizes, key widths, match densities chosen by a fixed-seed
/// generator).
TEST(OpsTest, ParallelModesMatchSerialOracle) {
  uint64_t rng = 0x2545f4914f6cdd1dULL;
  auto next = [&rng](uint64_t bound) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return (rng >> 33) % bound;
  };

  ThreadPool serial_pool(1);
  ThreadPool pool(4);
  const int64_t old_rows = SetParallelJoinMinRows(1);
  for (int trial = 0; trial < 5; ++trial) {
    const int64_t left_n = 512 + static_cast<int64_t>(next(2500));
    const int64_t right_n =
        kMinPartitionedBuildRows + static_cast<int64_t>(next(4000));
    const TermId key_space = 3 + static_cast<TermId>(next(400));
    const bool two_keys = trial % 2 == 1;

    Relation left(2);
    // The third build column is a row id: it keeps every build row
    // distinct, so the build side stays above the partitioned-path
    // floor whatever the key space.
    Relation right(3);
    for (int64_t i = 0; i < left_n; ++i) {
      left.Insert({static_cast<TermId>(next(key_space)),
                   static_cast<TermId>(next(key_space))});
    }
    for (int64_t i = 0; i < right_n; ++i) {
      right.Insert({static_cast<TermId>(next(key_space)),
                    static_cast<TermId>(next(key_space)),
                    static_cast<TermId>(i)});
    }
    const JoinSpec spec(two_keys
                            ? std::vector<JoinKey>{{1, 0}, {0, 1}}
                            : std::vector<JoinKey>{{1, 0}});
    const std::vector<int> out_cols = {0, 1, 3};

    Relation oracle(3);
    HashJoin(left, right, spec, out_cols, &oracle, &serial_pool);

    const int64_t batches = GetPartitionedJoinTelemetry().batches;
    Relation got(3);
    HashJoin(left, right, spec, out_cols, &got, &pool);
    ASSERT_EQ(GetPartitionedJoinTelemetry().batches, batches + 1)
        << "trial " << trial << " did not take the partitioned path";
    ASSERT_EQ(got.size(), oracle.size()) << "trial " << trial;
    for (int64_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got.row(i), oracle.row(i))
          << "trial " << trial << " row " << i;
    }
  }
  SetParallelJoinMinRows(old_rows);
}

/// A build-side insert invalidates the cached partitioned view; the
/// next partitioned join must rebuild it and see the new tuple.
TEST(OpsTest, PartitionedJoinSeesBuildSideGrowth) {
  ThreadPool pool(4);
  const int64_t old_rows = SetParallelJoinMinRows(1);

  Relation left(2);
  Relation right(2);
  for (TermId i = 0; i < 600; ++i) left.Insert({i, i % 37});
  for (TermId i = 0; i < kMinPartitionedBuildRows; ++i) {
    right.Insert({i % 37, i});
  }
  const JoinSpec spec({{1, 0}});
  Relation before(2);
  HashJoin(left, right, spec, {0, 3}, &before, &pool);

  right.Insert({7, 9999});  // stales the cached view
  Relation after(2);
  HashJoin(left, right, spec, {0, 3}, &after, &pool);
  EXPECT_GT(after.size(), before.size());
  bool found = false;
  for (int64_t i = 0; i < after.size() && !found; ++i) {
    found = after.row(i)[1] == 9999;
  }
  EXPECT_TRUE(found) << "rebuilt view must index the new build row";

  SetParallelJoinMinRows(old_rows);
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
