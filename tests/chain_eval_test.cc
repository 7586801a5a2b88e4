#include "core/chain_eval.h"

#include <gtest/gtest.h>

#include "workload/graph_gen.h"

namespace chainsplit {
namespace {

TEST(ChainEvalTest, ClosureOfLinearChain) {
  Database db;
  GraphData g = GenerateChainGraph(&db, "e", 6, "n");
  const Relation* edge =
      db.GetRelation(db.program().preds().Find("e", 2).value());
  TcStats stats;
  auto closure = TransitiveClosure(*edge, 1000, &stats);
  ASSERT_TRUE(closure.ok());
  EXPECT_EQ(closure->size(), 5 + 4 + 3 + 2 + 1);
  EXPECT_EQ(stats.tuples, closure->size());
  EXPECT_GE(stats.iterations, 4);
}

TEST(ChainEvalTest, CyclicGraphTerminates) {
  Database db;
  PredId e = db.program().InternPred("e", 2);
  TermId a = db.pool().MakeSymbol("a");
  TermId b = db.pool().MakeSymbol("b");
  db.InsertFact(e, {a, b});
  db.InsertFact(e, {b, a});
  TcStats stats;
  auto closure = TransitiveClosure(*db.GetRelation(e), 1000, &stats);
  ASSERT_TRUE(closure.ok());
  EXPECT_EQ(closure->size(), 4);  // aa ab ba bb
}

TEST(ChainEvalTest, IterationCapTriggers) {
  Database db;
  GraphData g = GenerateChainGraph(&db, "e", 50, "n");
  const Relation* edge =
      db.GetRelation(db.program().preds().Find("e", 2).value());
  TcStats stats;
  auto closure = TransitiveClosure(*edge, 5, &stats);
  ASSERT_FALSE(closure.ok());
  EXPECT_EQ(closure.status().code(), StatusCode::kResourceExhausted);
}

/// A 600-row first-round delta through the closure kernel's probe
/// loop must agree with the hand-computed closure of 300 disjoint
/// two-edge chains.
TEST(ChainEvalTest, LargeDeltaMatchesExpected) {
  Relation edge(2);
  constexpr TermId kChains = 300;  // 600 edges
  for (TermId k = 0; k < kChains; ++k) {
    edge.Insert({3 * k, 3 * k + 1});
    edge.Insert({3 * k + 1, 3 * k + 2});
  }
  TcStats stats;
  auto closure = TransitiveClosure(edge, 100, &stats);
  ASSERT_TRUE(closure.ok());
  EXPECT_EQ(closure->size(), 3 * kChains);
  for (TermId k = 0; k < kChains; ++k) {
    EXPECT_TRUE(closure->Contains({3 * k, 3 * k + 1}));
    EXPECT_TRUE(closure->Contains({3 * k + 1, 3 * k + 2}));
    EXPECT_TRUE(closure->Contains({3 * k, 3 * k + 2}));
  }
  // Round 1 derives the 300 two-hop pairs; round 2 derives nothing.
  EXPECT_EQ(stats.iterations, 2);
}

TEST(ChainEvalTest, RandomGraphClosureIsTransitive) {
  Database db;
  GraphOptions options;
  options.num_nodes = 25;
  options.num_edges = 60;
  options.seed = 9;
  GenerateGraph(&db, "e", options);
  const Relation* edge =
      db.GetRelation(db.program().preds().Find("e", 2).value());
  TcStats stats;
  auto closure = TransitiveClosure(*edge, 1000, &stats);
  ASSERT_TRUE(closure.ok());
  // Transitivity: (a,b),(b,c) in closure => (a,c) in closure.
  for (int64_t i = 0; i < closure->num_rows(); ++i) {
    const Tuple& ab = closure->row(i);
    for (int64_t j : closure->Probe({0}, {ab[1]})) {
      EXPECT_TRUE(closure->Contains({ab[0], closure->row(j)[1]}));
    }
  }
}

}  // namespace
}  // namespace chainsplit
