#include "core/bounded.h"

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "ast/printer.h"
#include "core/planner.h"
#include "core/rectify.h"
#include "engine/seminaive.h"

namespace chainsplit {
namespace {

class BoundedTest : public ::testing::Test {
 protected:
  void Load(std::string_view text) {
    ASSERT_TRUE(ParseProgram(text, &db_.program()).ok());
    ASSERT_TRUE(db_.LoadProgramFacts().ok());
  }

  std::optional<BoundedUnfolding> Detect(std::string_view pred, int arity,
                                         int max_period = 12) {
    rectified_ = RectifyRules(&db_.program());
    AppendIdbFacts(db_, &rectified_);
    return DetectBoundedRecursion(
        &db_.program(), rectified_,
        db_.program().preds().Find(pred, arity).value(), max_period);
  }

  Database db_;
  std::vector<Rule> rectified_;
};

TEST_F(BoundedTest, SwapPermutationHasPeriodTwo) {
  Load(R"(
sym(X, Y) :- base(X, Y).
sym(X, Y) :- link(X), sym(Y, X).
)");
  auto bounded = Detect("sym", 2);
  ASSERT_TRUE(bounded.has_value());
  EXPECT_EQ(bounded->period, 2);
  // Exit rename + 2 unfoldings.
  EXPECT_EQ(bounded->rules.size(), 3u);
  for (const Rule& rule : bounded->rules) {
    for (const Atom& atom : rule.body) {
      EXPECT_NE(db_.program().preds().name(atom.pred), "sym")
          << RuleToString(db_.program(), rule);
    }
  }
}

TEST_F(BoundedTest, IdentityPermutationDropsRecursion) {
  // p(X, Y) :- c(X), p(X, Y) derives nothing new: period 1.
  Load(R"(
p(X, Y) :- base(X, Y).
p(X, Y) :- c(X), p(X, Y).
)");
  auto bounded = Detect("p", 2);
  ASSERT_TRUE(bounded.has_value());
  EXPECT_EQ(bounded->period, 1);
}

TEST_F(BoundedTest, SgIsNotBounded) {
  Load(R"(
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
)");
  EXPECT_FALSE(Detect("sg", 2).has_value());
}

TEST_F(BoundedTest, RepeatedVariableIsNotAPermutation) {
  Load(R"(
p(X, Y) :- base(X, Y).
p(X, Y) :- c(X), p(X, X).
)");
  EXPECT_FALSE(Detect("p", 2).has_value());
}

TEST_F(BoundedTest, PeriodCapRejectsLongCycles) {
  // Cycles of length 3 and 5: order 15 > default cap 12.
  Load(R"(
big(A, B, C, D, E, F, G, H) :- base(A, B, C, D, E, F, G, H).
big(A, B, C, D, E, F, G, H) :- c(A), big(B, C, A, E, F, G, H, D).
)");
  EXPECT_FALSE(Detect("big", 8).has_value());
  EXPECT_TRUE(Detect("big", 8, /*max_period=*/15).has_value());
}

TEST_F(BoundedTest, UnfoldingMatchesFixpointSemantics) {
  // Symmetric-through-link recursion: compare the unfolded rules'
  // fixpoint with the original recursion's fixpoint.
  const char* source = R"(
base(a, b). base(c, d). base(e, e).
link(a). link(b). link(d).
sym(X, Y) :- base(X, Y).
sym(X, Y) :- link(X), sym(Y, X).
)";
  Load(source);
  auto bounded = Detect("sym", 2);
  ASSERT_TRUE(bounded.has_value());

  // Reference: full semi-naive on the original (recursive) program.
  SemiNaiveStats stats;
  ASSERT_TRUE(
      SemiNaiveEvaluate(&db_, db_.program().rules(), {}, &stats).ok());
  const Relation* reference =
      db_.GetRelation(db_.program().preds().Find("sym", 2).value());
  ASSERT_NE(reference, nullptr);

  // Unfolded: evaluate the replacement rules in a fresh database.
  Database db2;
  ASSERT_TRUE(ParseProgram(source, &db2.program()).ok());
  ASSERT_TRUE(db2.LoadProgramFacts().ok());
  std::vector<Rule> rectified = RectifyRules(&db2.program());
  AppendIdbFacts(db2, &rectified);
  auto bounded2 = DetectBoundedRecursion(
      &db2.program(), rectified,
      db2.program().preds().Find("sym", 2).value());
  ASSERT_TRUE(bounded2.has_value());
  ASSERT_TRUE(SemiNaiveEvaluate(&db2, bounded2->rules, {}, &stats).ok());
  const Relation* unfolded =
      db2.GetRelation(db2.program().preds().Find("sym", 2).value());
  ASSERT_NE(unfolded, nullptr);

  ASSERT_EQ(reference->size(), unfolded->size());
  for (int64_t i = 0; i < reference->num_rows(); ++i) {
    // Symbols intern in the same order in both pools.
    EXPECT_TRUE(unfolded->Contains(reference->row(i)));
  }
  // Sanity: sym(b, a) holds (base(a,b) + link(b)); sym(d, c) holds;
  // sym(c, d) held already.
  TermId b = db2.pool().MakeSymbol("b");
  TermId a = db2.pool().MakeSymbol("a");
  EXPECT_TRUE(unfolded->Contains({b, a}));
}

TEST_F(BoundedTest, PlannerUsesUnfolding) {
  Database db;
  auto result = RunProgram(&db, R"(
base(a, b). base(c, d).
link(a). link(b).
sym(X, Y) :- base(X, Y).
sym(X, Y) :- link(X), sym(Y, X).
?- sym(b, Y).
)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->plan.find("bounded recursion"), std::string::npos)
      << result->plan;
  ASSERT_EQ(result->answers.size(), 1u);
  EXPECT_EQ(result->answers[0][0], db.pool().MakeSymbol("a"));
}

TEST_F(BoundedTest, FactsParticipateInUnfolding) {
  Database db;
  auto result = RunProgram(&db, R"(
sym(a, b).
link(b).
sym(X, Y) :- link(X), sym(Y, X).
?- sym(b, Y).
)");
  ASSERT_TRUE(result.ok()) << result.status();
  // sym(a,b) fact + link(b) => sym(b,a).
  ASSERT_EQ(result->answers.size(), 1u);
  EXPECT_EQ(result->answers[0][0], db.pool().MakeSymbol("a"));
}

}  // namespace
}  // namespace chainsplit
