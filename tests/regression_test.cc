// Second-wave scenario tests: interactions between subsystems that the
// per-module suites don't reach.

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "common/strings.h"
#include "core/planner.h"
#include "engine/magic.h"
#include "engine/seminaive.h"
#include "term/list_utils.h"
#include "workload/list_gen.h"

namespace chainsplit {
namespace {

TEST(Regression, QueryJoiningTwoRecursiveGoals) {
  // The second IDB goal is evaluated against each answer of the first.
  Database db;
  auto result = RunProgram(&db, R"(
e(a, b). e(b, c). e(c, d).
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
?- tc(a, Y), tc(Y, Z).
)");
  ASSERT_TRUE(result.ok()) << result.status();
  // (Y,Z) pairs: b->c, b->d, c->d.
  EXPECT_EQ(result->answers.size(), 3u);
}

TEST(Regression, TwoCallPatternsOfOnePredicate) {
  // p is called with adornment bf from the query and ff inside q: the
  // adornment worklist must process both patterns.
  Database db;
  ASSERT_TRUE(ParseProgram(R"(
e(a, b). e(b, c).
p(X, Y) :- e(X, Y).
p(X, Y) :- e(X, Z), p(Z, Y).
q(X, Y) :- p(X, Y), marked(Y).
marked(c).
)",
                           &db.program())
                  .ok());
  ASSERT_TRUE(db.LoadProgramFacts().ok());
  // Query q(X, Y) with X free: p is reached with pattern ff.
  auto result = RunProgram(&db, "?- q(X, c).");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 2u);  // a and b reach c
}

TEST(Regression, BottomUpConstructionInEvaluableConsMode) {
  // cons in bbf mode is finitely evaluable bottom-up: lists CAN be
  // built by semi-naive when the chain is bounded by the data.
  Database db;
  ASSERT_TRUE(ParseProgram(R"(
n(1). n(2).
single(L) :- n(X), cons(X, [], L).
pairlist(L) :- n(X), n(Y), single(T), cons(Y, T, M), cons(X, M, L).
)",
                           &db.program())
                  .ok());
  ASSERT_TRUE(db.LoadProgramFacts().ok());
  SemiNaiveStats stats;
  ASSERT_TRUE(
      SemiNaiveEvaluate(&db, db.program().rules(), {}, &stats).ok());
  const Relation* single =
      db.GetRelation(db.program().preds().Find("single", 1).value());
  EXPECT_EQ(single->size(), 2);
  const Relation* pairlist =
      db.GetRelation(db.program().preds().Find("pairlist", 1).value());
  // 2 x 2 x 2 three-element lists.
  EXPECT_EQ(pairlist->size(), 8);
  EXPECT_TRUE(pairlist->Contains({MakeIntList(db.pool(), {{1, 2, 1}})}));
}

TEST(Regression, DeepLinearRecursionTopDown) {
  // An SLD proof 2,000 levels deep through the planner's forced
  // top-down path: the prover keeps its proof state on the heap.
  Database db;
  PredId e = db.program().InternPred("e", 2);
  for (int i = 0; i < 2000; ++i) {
    db.InsertFact(e, {db.pool().MakeInt(i), db.pool().MakeInt(i + 1)});
  }
  ASSERT_TRUE(ParseProgram(R"(
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
)",
                           &db.program())
                  .ok());
  Query query;
  PredId tc = db.program().preds().Find("tc", 2).value();
  query.goals.push_back(
      Atom{tc, {db.pool().MakeInt(0), db.pool().MakeInt(2000)}});
  PlannerOptions options;
  options.force = Technique::kTopDown;
  auto result = EvaluateQuery(&db, query, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 1u);  // provable, no variables
}

TEST(Regression, DeepChainBuffered) {
  // Note the inherent cost shape: the memoized evaluator computes the
  // answers of EVERY suffix call state, so a straight chain of length
  // n costs O(n^2) answer propagations — same as the magic-transformed
  // bottom-up program. Kept at n=1000 accordingly.
  Database db;
  PredId e = db.program().InternPred("e", 2);
  for (int i = 0; i < 1000; ++i) {
    db.InsertFact(e, {db.pool().MakeInt(i), db.pool().MakeInt(i + 1)});
  }
  ASSERT_TRUE(ParseProgram(R"(
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
)",
                           &db.program())
                  .ok());
  Query query;
  PredId tc = db.program().preds().Find("tc", 2).value();
  query.goals.push_back(
      Atom{tc, {db.pool().MakeInt(0), db.pool().MakeVariable("Y")}});
  PlannerOptions options;
  options.force = Technique::kBuffered;
  auto result = EvaluateQuery(&db, query, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 1000u);
}

TEST(Regression, BufferedWithMultipleExitRules) {
  Database db;
  ASSERT_TRUE(ParseProgram(R"(
e(a, b). e(b, c).
stop1(b). stop2(c).
reach(X, Y) :- stop1(X), Y = one.
reach(X, Y) :- stop2(X), Y = two.
reach(X, Y) :- e(X, X1), reach(X1, Y).
)",
                           &db.program())
                  .ok());
  ASSERT_TRUE(db.LoadProgramFacts().ok());
  Query query;
  PredId reach = db.program().preds().Find("reach", 2).value();
  query.goals.push_back(
      Atom{reach, {db.pool().MakeSymbol("a"), db.pool().MakeVariable("Y")}});
  PlannerOptions options;
  options.force = Technique::kBuffered;
  auto result = EvaluateQuery(&db, query, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 2u);  // one (via b) and two (via c)
}

TEST(Regression, MagicSeedAccumulationAcrossQueries) {
  // Two queries with different constants on one database: magic seeds
  // accumulate, answers stay per-query correct.
  Database db;
  ASSERT_TRUE(ParseProgram(R"(
e(a, b). e(b, c). e(x, y).
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
?- tc(a, Y).
?- tc(x, Y).
)",
                           &db.program())
                  .ok());
  ASSERT_TRUE(db.LoadProgramFacts().ok());
  auto first = EvaluateQuery(&db, db.program().queries()[0]);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->answers.size(), 2u);  // b, c
  auto second = EvaluateQuery(&db, db.program().queries()[1]);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->answers.size(), 1u);  // y
  // And re-running the first query still gives the same answers.
  auto again = EvaluateQuery(&db, db.program().queries()[0]);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->answers.size(), 2u);
}

TEST(Regression, ComparisonOnlyQuery) {
  Database db;
  auto result = RunProgram(&db, "n(1).\n?- 1 < 2.");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 1u);  // provable, zero variables
  Database db2;
  auto no = RunProgram(&db2, "n(1).\n?- 2 < 1.");
  ASSERT_TRUE(no.ok());
  EXPECT_TRUE(no->answers.empty());
}

TEST(Regression, AppendAllFreeTopDownEnumeratesWithCap) {
  // append(X, Y, Z) fully free is infinite; the solution cap bounds it.
  Database db;
  ASSERT_TRUE(ParseProgram(AppendProgramSource(), &db.program()).ok());
  ASSERT_TRUE(db.LoadProgramFacts().ok());
  Query query;
  PredId append = db.program().preds().Find("append", 3).value();
  query.goals.push_back(Atom{append,
                             {db.pool().MakeVariable("X"),
                              db.pool().MakeVariable("Y"),
                              db.pool().MakeVariable("Z")}});
  PlannerOptions options;
  options.force = Technique::kTopDown;
  options.topdown.max_solutions = 5;
  auto result = EvaluateQuery(&db, query, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 5u);
}

TEST(Regression, IsortOnPresortedAndReversedInput) {
  for (const char* input : {"[1, 2, 3, 4, 5]", "[5, 4, 3, 2, 1]",
                            "[2, 2, 2]", "[7]"}) {
    Database db;
    auto result = RunProgram(
        &db, StrCat(IsortProgramSource(), "?- isort(", input, ", Ys)."));
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->answers.size(), 1u) << input;
    auto ints = ListInts(db.pool(), result->answers[0][0]);
    ASSERT_TRUE(ints.has_value());
    EXPECT_TRUE(std::is_sorted(ints->begin(), ints->end())) << input;
  }
}

TEST(Regression, ScsgWithUnmaterializedSameCountryRule) {
  // same_country defined by a rule over country/2 instead of a
  // materialized EDB relation: scsg still evaluates (same_country is
  // then an IDB predicate handled by the adornment worklist).
  Database db;
  auto result = RunProgram(&db, R"(
parent(ann, carol). parent(bob, dan).
parent(carol, eve). parent(dan, fay).
country(carol, ca). country(dan, ca).
country(eve, ca).   country(fay, ca).
sibling(eve, fay).  sibling(fay, eve).
same_country(X, Y) :- country(X, C), country(Y, C).
scsg(X, Y) :- sibling(X, Y).
scsg(X, Y) :- parent(X, X1), same_country(X1, Y1), parent(Y, Y1),
              scsg(X1, Y1).
?- scsg(ann, Y).
)");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->answers.size(), 1u);
  EXPECT_EQ(result->answers[0][0], db.pool().MakeSymbol("bob"));
}

}  // namespace
}  // namespace chainsplit

namespace chainsplit {
namespace {

TEST(Regression, ExistenceCheckStopsEarly) {
  // Fully bound query over a big chain: the backward phase should stop
  // after the first proof instead of materializing every answer.
  Database db;
  PredId e = db.program().InternPred("e", 2);
  for (int i = 0; i < 500; ++i) {
    db.InsertFact(e, {db.pool().MakeInt(i), db.pool().MakeInt(i + 1)});
  }
  ASSERT_TRUE(ParseProgram(R"(
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
)",
                           &db.program())
                  .ok());
  Query query;
  PredId tc = db.program().preds().Find("tc", 2).value();
  query.goals.push_back(
      Atom{tc, {db.pool().MakeInt(0), db.pool().MakeInt(1)}});
  PlannerOptions options;
  options.force = Technique::kBuffered;
  auto result = EvaluateQuery(&db, query, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 1u);
  EXPECT_NE(result->plan.find("existence check"), std::string::npos);
  // Without early stop, every suffix state propagates its full answer
  // set (~125k answers); with it, only the proof of tc(0,1) is needed.
  EXPECT_LT(result->buffered_stats.answers, 5000);
}

TEST(Regression, ExistenceCheckNegativeStillExhaustive) {
  Database db;
  auto result = RunProgram(&db, R"(
e(a, b). e(b, c).
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
?- tc(c, a).
)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->answers.empty());
}

}  // namespace
}  // namespace chainsplit
