#include "rel/relation.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <random>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

namespace chainsplit {
namespace {

TEST(RelationTest, InsertDeduplicates) {
  Relation rel(2);
  EXPECT_TRUE(rel.Insert({1, 2}));
  EXPECT_FALSE(rel.Insert({1, 2}));
  EXPECT_TRUE(rel.Insert({2, 1}));
  EXPECT_EQ(rel.size(), 2);
}

TEST(RelationTest, ContainsAndRowAccess) {
  Relation rel(2);
  rel.Insert({1, 2});
  rel.Insert({3, 4});
  EXPECT_TRUE(rel.Contains({1, 2}));
  EXPECT_FALSE(rel.Contains({2, 1}));
  EXPECT_EQ(rel.row(0), (Tuple{1, 2}));
  EXPECT_EQ(rel.row(1), (Tuple{3, 4}));  // insertion order preserved
}

TEST(RelationTest, ProbeBuildsAndMaintainsIndex) {
  Relation rel(2);
  rel.Insert({1, 10});
  rel.Insert({1, 11});
  rel.Insert({2, 20});
  const auto& hits = rel.Probe({0}, {1});
  EXPECT_EQ(hits.size(), 2u);
  // Index maintained incrementally on later inserts.
  rel.Insert({1, 12});
  EXPECT_EQ(rel.Probe({0}, {1}).size(), 3u);
  EXPECT_TRUE(rel.Probe({0}, {99}).empty());
}

TEST(RelationTest, MultiColumnProbe) {
  Relation rel(3);
  rel.Insert({1, 2, 3});
  rel.Insert({1, 2, 4});
  rel.Insert({1, 3, 5});
  EXPECT_EQ(rel.Probe({0, 1}, {1, 2}).size(), 2u);
  EXPECT_EQ(rel.Probe({1, 2}, {2, 4}).size(), 1u);
}

TEST(RelationTest, FullKeyProbeIsADedupLookupNotAnIndex) {
  Relation rel(2);
  for (TermId i = 0; i < 100; ++i) rel.Insert({i % 10, i});
  ASSERT_EQ(rel.telemetry().posting_blocks, 0);

  std::vector<int64_t> hit(rel.Probe({0, 1}, {2, 42}).begin(),
                           rel.Probe({0, 1}, {2, 42}).end());
  EXPECT_EQ(hit, std::vector<int64_t>{42});
  EXPECT_TRUE(rel.Probe({0, 1}, {3, 42}).empty());
  std::vector<int64_t> each;
  Tuple key = {7, 17};
  rel.ProbeEach({0, 1}, key.data(), [&](int64_t j) { each.push_back(j); });
  EXPECT_EQ(each, std::vector<int64_t>{17});
  Tuple missing = {7, 18};
  rel.ProbeEach({0, 1}, missing.data(), [&](int64_t j) { each.push_back(j); });
  EXPECT_EQ(each.size(), 1u);

  EXPECT_EQ(rel.telemetry().posting_blocks, 0);  // no index was built
  // A partial key still builds (and uses) its index.
  EXPECT_EQ(rel.Probe({0}, {2}).size(), 10u);
  EXPECT_GT(rel.telemetry().posting_blocks, 0);
}

TEST(RelationTest, SeveralIndexesCoexist) {
  Relation rel(2);
  for (TermId i = 0; i < 100; ++i) rel.Insert({i % 10, i});
  EXPECT_EQ(rel.Probe({0}, {3}).size(), 10u);
  EXPECT_EQ(rel.Probe({1}, {42}).size(), 1u);
  EXPECT_EQ(rel.Probe({0, 1}, {2, 42}).size(), 1u);
}

TEST(RelationTest, UnionWith) {
  Relation a(1);
  Relation b(1);
  a.Insert({1});
  a.Insert({2});
  b.Insert({2});
  b.Insert({3});
  EXPECT_EQ(a.UnionWith(b), 1);
  EXPECT_EQ(a.size(), 3);
}

TEST(RelationTest, ClearDropsTuplesAndIndexes) {
  Relation rel(2);
  rel.Insert({1, 2});
  rel.Probe({0}, {1});
  rel.Clear();
  EXPECT_TRUE(rel.empty());
  EXPECT_TRUE(rel.Probe({0}, {1}).empty());
  EXPECT_TRUE(rel.Insert({1, 2}));
}

TEST(RelationTest, ZeroArityRelation) {
  Relation rel(0);
  EXPECT_TRUE(rel.Insert({}));
  EXPECT_FALSE(rel.Insert({}));
  EXPECT_EQ(rel.size(), 1);
  EXPECT_TRUE(rel.Contains({}));
}

TEST(RelationTest, LargeRelationStaysConsistent) {
  Relation rel(2);
  for (TermId i = 0; i < 20000; ++i) rel.Insert({i / 100, i});
  EXPECT_EQ(rel.size(), 20000);
  EXPECT_EQ(rel.Probe({0}, {7}).size(), 100u);
}

TEST(RelationTest, IndexesMaintainedAfterClear) {
  Relation rel(2);
  rel.Insert({1, 10});
  rel.Insert({2, 20});
  EXPECT_EQ(rel.Probe({0}, {1}).size(), 1u);
  EXPECT_EQ(rel.Probe({1}, {20}).size(), 1u);
  rel.Clear();
  EXPECT_TRUE(rel.empty());
  // Rebuilt-from-scratch indexes must see post-Clear inserts only.
  rel.Insert({1, 30});
  rel.Insert({3, 10});
  EXPECT_EQ(rel.Probe({0}, {1}).size(), 1u);
  EXPECT_TRUE(rel.Probe({0}, {2}).empty());
  EXPECT_EQ(rel.Probe({1}, {10}).size(), 1u);
  rel.Insert({1, 40});  // incremental maintenance after the rebuild
  EXPECT_EQ(rel.Probe({0}, {1}).size(), 2u);
}

TEST(RelationTest, MoveSemantics) {
  Relation a(2);
  for (TermId i = 0; i < 100; ++i) a.Insert({i % 5, i});
  a.Probe({0}, {3});  // force an index before the move

  Relation b(std::move(a));
  EXPECT_EQ(b.size(), 100);
  EXPECT_EQ(b.Probe({0}, {3}).size(), 20u);
  EXPECT_EQ(b.row(0), (Tuple{0, 0}));
  EXPECT_TRUE(b.Insert({99, 99}));

  Relation c(2);
  c.Insert({7, 7});
  c = std::move(b);
  EXPECT_EQ(c.size(), 101);
  EXPECT_FALSE(c.Contains({7, 7}));
  EXPECT_TRUE(c.Contains({99, 99}));
  EXPECT_EQ(c.Probe({0}, {3}).size(), 20u);
}

TEST(RelationTest, ReservePreservesBehaviour) {
  Relation rel(3);
  rel.Insert({1, 2, 3});
  rel.Reserve(5000);
  EXPECT_EQ(rel.size(), 1);
  EXPECT_TRUE(rel.Contains({1, 2, 3}));
  for (TermId i = 0; i < 5000; ++i) rel.Insert({i, i + 1, i % 7});
  EXPECT_EQ(rel.size(), 5001);
  EXPECT_EQ(rel.Probe({2}, {3}).size(), 5000u / 7 + 1);
  EXPECT_GE(rel.telemetry().arena_bytes,
            static_cast<int64_t>(5001 * 3 * sizeof(TermId)));
}

TEST(RelationTest, ProbeEachMatchesProbe) {
  Relation rel(2);
  for (TermId i = 0; i < 50; ++i) rel.Insert({i % 4, i});
  std::vector<int64_t> via_probe(rel.Probe({0}, {2}).begin(),
                                 rel.Probe({0}, {2}).end());
  std::vector<int64_t> via_each;
  Tuple key = {2};
  rel.ProbeEach({0}, key.data(), [&](int64_t j) { via_each.push_back(j); });
  EXPECT_EQ(via_probe, via_each);
  EXPECT_FALSE(via_probe.empty());
}

TEST(RelationTest, NestedProbeBuildingAnotherIndexIsSafe) {
  // The grounder probes a relation on one column set from inside an
  // iteration over another; building the inner index grows the shared
  // posting pool mid-iteration and must not invalidate the outer walk.
  Relation rel(2);
  for (TermId i = 0; i < 2000; ++i) rel.Insert({i % 50, i});
  std::vector<int64_t> outer;
  int64_t inner_hits = 0;
  Tuple key = {3};
  rel.ProbeEach({0}, key.data(), [&](int64_t j) {
    outer.push_back(j);
    Tuple inner_key = {rel.row(j)[1]};
    rel.ProbeEach({1}, inner_key.data(), [&](int64_t) { ++inner_hits; });
  });
  EXPECT_EQ(outer.size(), 40u);
  int64_t expected = 0;  // linear-scan oracle for the nested probes
  for (int64_t j : outer) {
    TermId v = rel.row(j)[1];
    for (int64_t r = 0; r < rel.num_rows(); ++r) {
      if (rel.row(r)[1] == v) ++expected;
    }
  }
  EXPECT_EQ(inner_hits, expected);
}

TEST(RelationTest, ConcurrentLazyIndexBuildsArePublicationSafe) {
  // Several reader threads probe the same frozen relation on different
  // (and overlapping) column sets with no external synchronization:
  // the lazy index builds must race safely (double-checked under
  // index_mu_, published via the num_indexes_ release store) and every
  // thread must see exactly the right posting lists. This is the
  // regime the query service's shared lock establishes; run under tsan
  // via the tier1-tsan label.
  Relation rel(2);
  for (TermId i = 0; i < 3000; ++i) rel.Insert({i % 37, i % 111});

  // Linear-scan oracles, computed before any index exists.
  auto count_matching = [&rel](int column, TermId value) {
    int64_t n = 0;
    for (int64_t r = 0; r < rel.num_rows(); ++r) {
      if (rel.row(r)[column] == value) ++n;
    }
    return n;
  };
  std::vector<int64_t> expected0(37), expected1(111);
  for (TermId v = 0; v < 37; ++v) expected0[v] = count_matching(0, v);
  for (TermId v = 0; v < 111; ++v) expected1[v] = count_matching(1, v);

  // Full-key probes read the dedup table beside the index builds.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        const int column = (t + round) % 2;
        const TermId value =
            static_cast<TermId>((t * 13 + round) % (column == 0 ? 37 : 111));
        int64_t hits = 0;
        Tuple key = {value};
        rel.ProbeEach({column}, key.data(), [&hits](int64_t) { ++hits; });
        const int64_t expected =
            column == 0 ? expected0[value] : expected1[value];
        if (hits != expected) mismatches.fetch_add(1);

        const TermId i = static_cast<TermId>((t * 701 + round * 37) % 3000);
        Tuple full = {i % 37, i % 111};  // a stored row
        int64_t row_id = -1;
        rel.ProbeEach({0, 1}, full.data(), [&](int64_t j) { row_id = j; });
        if (row_id < 0 || rel.row(row_id) != full) mismatches.fetch_add(1);
        Tuple absent = {i % 37, 111 + i};
        if (!rel.Probe({0, 1}, absent).empty()) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // The racing builds published the two partial-key indexes.
  EXPECT_GT(rel.telemetry().posting_blocks, 0);
}

/// The pre-arena reference semantics: an unordered_set for dedup, a
/// vector for insertion order, and per-column-set postings maps. The
/// randomized test below drives Relation and this oracle with the same
/// operation stream and demands identical observable behaviour.
class OracleRelation {
 public:
  explicit OracleRelation(int arity) : arity_(arity) {}

  bool Insert(const Tuple& t) {
    if (!set_.insert(t).second) return false;
    rows_.push_back(t);
    for (auto& [columns, postings] : indexes_) {
      postings[KeyOf(t, columns)].push_back(
          static_cast<int64_t>(rows_.size()) - 1);
    }
    return true;
  }
  bool Contains(const Tuple& t) const { return set_.count(t) > 0; }
  int64_t size() const { return static_cast<int64_t>(rows_.size()); }
  const Tuple& row(int64_t i) const { return rows_[i]; }

  std::vector<int64_t> Probe(const std::vector<int>& columns,
                             const Tuple& key) {
    auto& postings = EnsureIndex(columns);
    auto it = postings.find(key);
    return it == postings.end() ? std::vector<int64_t>{} : it->second;
  }

  void Clear() {
    set_.clear();
    rows_.clear();
    indexes_.clear();
  }

 private:
  using PostingsMap = std::map<Tuple, std::vector<int64_t>>;

  static Tuple KeyOf(const Tuple& t, const std::vector<int>& columns) {
    Tuple key;
    for (int c : columns) key.push_back(t[c]);
    return key;
  }
  PostingsMap& EnsureIndex(const std::vector<int>& columns) {
    auto it = indexes_.find(columns);
    if (it == indexes_.end()) {
      it = indexes_.emplace(columns, PostingsMap{}).first;
      for (size_t i = 0; i < rows_.size(); ++i) {
        it->second[KeyOf(rows_[i], columns)].push_back(
            static_cast<int64_t>(i));
      }
    }
    return it->second;
  }

  int arity_;
  std::unordered_set<Tuple, TupleHash> set_;
  std::vector<Tuple> rows_;
  std::map<std::vector<int>, PostingsMap> indexes_;
};

TEST(RelationTest, RandomizedDifferentialAgainstOracle) {
  std::mt19937 rng(20260805);
  const std::vector<std::vector<int>> column_sets = {
      {0}, {1}, {2}, {0, 2}, {0, 1, 2}};
  for (int round = 0; round < 4; ++round) {
    Relation rel(3);
    OracleRelation oracle(3);
    std::uniform_int_distribution<int> value(0, 12);
    std::uniform_int_distribution<int> op(0, 99);
    for (int step = 0; step < 3000; ++step) {
      const int o = op(rng);
      Tuple t = {value(rng), value(rng), value(rng)};
      if (o < 55) {
        ASSERT_EQ(rel.Insert(t), oracle.Insert(t)) << "step " << step;
      } else if (o < 75) {
        ASSERT_EQ(rel.Contains(t), oracle.Contains(t)) << "step " << step;
      } else if (o < 99) {
        const auto& columns =
            column_sets[static_cast<size_t>(o) % column_sets.size()];
        Tuple key;
        for (size_t k = 0; k < columns.size(); ++k) key.push_back(value(rng));
        std::vector<int64_t> got(rel.Probe(columns, key).begin(),
                                 rel.Probe(columns, key).end());
        ASSERT_EQ(got, oracle.Probe(columns, key)) << "step " << step;
      } else {
        rel.Clear();
        oracle.Clear();
      }
      ASSERT_EQ(rel.size(), oracle.size()) << "step " << step;
    }
    // Full sweep: identical contents in identical insertion order.
    for (int64_t i = 0; i < rel.size(); ++i) {
      ASSERT_EQ(rel.row(i), oracle.row(i)) << "row " << i;
    }
  }
}

TEST(RelationTest, VersionBumpsOnNewRowsAndClear) {
  Relation rel(2);
  const uint64_t v0 = rel.version();
  EXPECT_TRUE(rel.Insert({1, 2}));
  EXPECT_GT(rel.version(), v0);
  const uint64_t v1 = rel.version();
  EXPECT_FALSE(rel.Insert({1, 2}));  // duplicate: contents unchanged
  EXPECT_EQ(rel.version(), v1);
  rel.Clear();
  EXPECT_GT(rel.version(), v1);
}

}  // namespace
}  // namespace chainsplit
