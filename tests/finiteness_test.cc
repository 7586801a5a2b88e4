#include "core/finiteness.h"

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "common/strings.h"
#include "core/chain_compile.h"
#include "core/buffered.h"
#include "core/rectify.h"
#include "core/split_decision.h"
#include "workload/list_gen.h"

namespace chainsplit {
namespace {

class FinitenessTest : public ::testing::Test {
 protected:
  CompiledChain Compile(std::string_view text, std::string_view pred,
                        int arity) {
    EXPECT_TRUE(ParseProgram(text, &db_.program()).ok());
    EXPECT_TRUE(db_.LoadProgramFacts().ok());
    rectified_ = RectifyRules(&db_.program());
    AppendIdbFacts(db_, &rectified_);
    auto chain = CompileChain(db_.program(), rectified_,
                              db_.program().preds().Find(pred, arity).value());
    EXPECT_TRUE(chain.ok()) << chain.status();
    return *chain;
  }

  std::vector<TermId> BoundHeadVars(const CompiledChain& chain,
                                    const std::vector<int>& positions) {
    std::vector<TermId> vars;
    for (int i : positions) {
      db_.pool().CollectVariables(chain.head().args[i], &vars);
    }
    return vars;
  }

  Database db_;
  std::vector<Rule> rectified_;
};

TEST_F(FinitenessTest, AppendBffForcesFinitenessSplit) {
  // §2.2: with U (and V) bound, cons(X1,U1,U) is evaluable (ffb mode)
  // but cons(X1,W1,W) is not — it must be delayed.
  CompiledChain chain = Compile(AppendProgramSource(), "append", 3);
  ChainPath whole = WholeBodyPath(db_.pool(), chain);
  auto split = SplitPathByFiniteness(db_.program(), chain, whole,
                                     BoundHeadVars(chain, {0, 1}));
  ASSERT_TRUE(split.ok()) << split.status();
  EXPECT_TRUE(split->IsSplit());
  EXPECT_TRUE(split->finiteness_split);
  EXPECT_FALSE(split->efficiency_split);
  EXPECT_EQ(split->evaluable.size(), 1u);
  EXPECT_EQ(split->delayed.size(), 1u);
  // The list head element (X1 in the paper's rule (1.16), X in our
  // source) is shared between the portions: it must be buffered.
  ASSERT_EQ(split->buffered_vars.size(), 1u);
  EXPECT_EQ(db_.pool().name(split->buffered_vars[0])[0], 'X');
}

TEST_F(FinitenessTest, AppendAllBoundNeedsNoSplit) {
  // append with all three arguments bound: both cons literals are
  // evaluable (the third argument binds each).
  CompiledChain chain = Compile(AppendProgramSource(), "append", 3);
  ChainPath whole = WholeBodyPath(db_.pool(), chain);
  auto split = SplitPathByFiniteness(db_.program(), chain, whole,
                                     BoundHeadVars(chain, {0, 1, 2}));
  ASSERT_TRUE(split.ok());
  EXPECT_FALSE(split->IsSplit());
  EXPECT_FALSE(split->finiteness_split);
}

TEST_F(FinitenessTest, FunctionFreeChainNeedsNoSplitWithoutGate) {
  CompiledChain chain = Compile(R"(
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
)",
                                "tc", 2);
  ChainPath whole = WholeBodyPath(db_.pool(), chain);
  auto split = SplitPathByFiniteness(db_.program(), chain, whole,
                                     BoundHeadVars(chain, {0}));
  ASSERT_TRUE(split.ok());
  EXPECT_FALSE(split->IsSplit());
  EXPECT_EQ(split->evaluable.size(), 1u);
}

TEST_F(FinitenessTest, SgDownChainIsDelayed) {
  // sg^bf: parent(X,X1) iterates forward, parent(Y,Y1) is unreachable
  // from the bound side and is delayed (evaluated on the way back) —
  // this is exactly the up/down structure of counting.
  CompiledChain chain = Compile(R"(
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
)",
                                "sg", 2);
  ChainPath whole = WholeBodyPath(db_.pool(), chain);
  auto split = SplitPathByFiniteness(db_.program(), chain, whole,
                                     BoundHeadVars(chain, {0}));
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->evaluable.size(), 1u);
  EXPECT_EQ(split->delayed.size(), 1u);
  EXPECT_FALSE(split->finiteness_split);  // both are finite relations
}

TEST_F(FinitenessTest, TravelSplitsSumAndCons) {
  CompiledChain chain = Compile(R"(
travel(L, D, A, F) :- flight(Fno, D, A, F), cons(Fno, [], L).
travel(L, D, A, F) :- flight(Fno, D, A1, F1), travel(L1, A1, A, F2),
                      F is F1 + F2, cons(Fno, L1, L).
)",
                                "travel", 4);
  ChainPath whole = WholeBodyPath(db_.pool(), chain);
  // D and A bound (positions 1, 2).
  auto split = SplitPathByFiniteness(db_.program(), chain, whole,
                                     BoundHeadVars(chain, {1, 2}));
  ASSERT_TRUE(split.ok());
  EXPECT_TRUE(split->finiteness_split);
  EXPECT_EQ(split->evaluable.size(), 1u);  // flight only
  EXPECT_EQ(split->delayed.size(), 2u);    // sum and cons
  // Fno and F1 feed the delayed portion: both buffered.
  EXPECT_EQ(split->buffered_vars.size(), 2u);
}

TEST_F(FinitenessTest, EfficiencyGateDelaysWeakLinkage) {
  Database db;
  ASSERT_TRUE(ParseProgram(R"(
scsg(X, Y) :- sibling(X, Y).
scsg(X, Y) :- parent(X, X1), same_country(X1, Y1), parent(Y, Y1),
              scsg(X1, Y1).
parent(a, b). sibling(a, a).
)",
                           &db.program())
                  .ok());
  ASSERT_TRUE(db.LoadProgramFacts().ok());
  // Weak same_country: many tuples, few distinct keys.
  PredId sc = db.program().preds().Find("same_country", 2).value();
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      db.InsertFact(sc, {db.pool().MakeSymbol("q0"),
                         db.pool().MakeSymbol(StrCat("r", i, "_", j))});
    }
  }
  std::vector<Rule> rectified = RectifyRules(&db.program());
  AppendIdbFacts(db, &rectified);
  auto chain = CompileChain(db.program(), rectified,
                            db.program().preds().Find("scsg", 2).value());
  ASSERT_TRUE(chain.ok());
  ChainPath whole = WholeBodyPath(db.pool(), *chain);
  std::vector<TermId> bound;
  db.pool().CollectVariables(chain->head().args[0], &bound);

  SplitDecisionOptions options;
  auto split = DecideSplit(&db, *chain, whole, bound, options);
  ASSERT_TRUE(split.ok()) << split.status();
  EXPECT_TRUE(split->IsSplit());
  EXPECT_TRUE(split->efficiency_split);
  EXPECT_FALSE(split->finiteness_split);
  EXPECT_EQ(split->evaluable.size(), 1u);  // parent(X, X1) only
  EXPECT_EQ(split->delayed.size(), 2u);

  // With the efficiency criterion disabled, everything is followed.
  options.enable_efficiency_split = false;
  auto follow = DecideSplit(&db, *chain, whole, bound, options);
  ASSERT_TRUE(follow.ok());
  EXPECT_FALSE(follow->IsSplit());
}

TEST_F(FinitenessTest, HoldsWithFanoutChecksConstraint) {
  Relation rel(2);
  TermPool pool;
  for (int i = 0; i < 10; ++i) {
    rel.Insert({pool.MakeInt(i % 2), pool.MakeInt(i)});
  }
  FinitenessConstraint constraint{{0}, 1};
  EXPECT_TRUE(HoldsWithFanout(rel, constraint, 5));
  EXPECT_FALSE(HoldsWithFanout(rel, constraint, 4));
  FinitenessConstraint reverse{{1}, 0};
  EXPECT_TRUE(HoldsWithFanout(rel, reverse, 1));
}

TEST_F(FinitenessTest, DisablingFinitenessSplitReportsError) {
  CompiledChain chain = Compile(AppendProgramSource(), "append", 3);
  ChainPath whole = WholeBodyPath(db_.pool(), chain);
  SplitDecisionOptions options;
  options.enable_finiteness_split = false;
  auto split = DecideSplit(&db_, chain, whole, BoundHeadVars(chain, {0, 1}),
                           options);
  ASSERT_FALSE(split.ok());
  EXPECT_EQ(split.status().code(), StatusCode::kNotFinitelyEvaluable);
}

TEST_F(FinitenessTest, DeclaredFiniteModeAllowsForwardIdbLiteral) {
  // same_country defined by a rule is an IDB predicate: by default the
  // splitter delays it; declaring the finiteness constraint
  // same_country: X -> Y (mode bf) lets it join the evaluable portion.
  const char* source = R"(
same_country(X, Y) :- country(X, C), country(Y, C).
scsg(X, Y) :- sibling(X, Y).
scsg(X, Y) :- parent(X, X1), same_country(X1, Y1), parent(Y, Y1),
              scsg(X1, Y1).
)";
  CompiledChain chain = Compile(source, "scsg", 2);
  ChainPath whole = WholeBodyPath(db_.pool(), chain);
  std::vector<TermId> bound = BoundHeadVars(chain, {0});

  auto delayed = SplitPathByFiniteness(db_.program(), chain, whole, bound);
  ASSERT_TRUE(delayed.ok());
  EXPECT_EQ(delayed->evaluable.size(), 1u);  // parent(X, X1) only

  PredId sc = db_.program().preds().Find("same_country", 2).value();
  db_.program().DeclareFiniteMode(sc, "bf");
  auto followed = SplitPathByFiniteness(db_.program(), chain, whole, bound);
  ASSERT_TRUE(followed.ok());
  EXPECT_EQ(followed->evaluable.size(), 3u);  // whole path followed
  EXPECT_FALSE(followed->IsSplit());
}

TEST_F(FinitenessTest, FiniteModeMatchingRules) {
  Database db;
  PredId p = db.program().InternPred("p", 3);
  EXPECT_FALSE(db.program().HasFiniteMode(p, "bbb"));
  db.program().DeclareFiniteMode(p, "bbf");
  EXPECT_TRUE(db.program().HasFiniteMode(p, "bbf"));
  EXPECT_TRUE(db.program().HasFiniteMode(p, "bbb"));  // more bound: ok
  EXPECT_FALSE(db.program().HasFiniteMode(p, "bfb"));
  EXPECT_FALSE(db.program().HasFiniteMode(p, "fb"));  // arity mismatch
}

}  // namespace
}  // namespace chainsplit
