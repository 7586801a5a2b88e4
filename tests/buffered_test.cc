#include "core/buffered.h"

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "common/strings.h"
#include "core/rectify.h"
#include "core/split_decision.h"
#include "term/list_utils.h"
#include "workload/family_gen.h"
#include "workload/list_gen.h"

namespace chainsplit {
namespace {

class BufferedTest : public ::testing::Test {
 protected:
  void Load(std::string_view text) {
    ASSERT_TRUE(ParseProgram(text, &db_.program()).ok());
    ASSERT_TRUE(db_.LoadProgramFacts().ok());
  }

  CompiledChain Compile(std::string_view pred, int arity) {
    rectified_ = RectifyRules(&db_.program());
    AppendIdbFacts(db_, &rectified_);
    auto chain = CompileChain(db_.program(), rectified_,
                              db_.program().preds().Find(pred, arity).value());
    EXPECT_TRUE(chain.ok()) << chain.status();
    return *chain;
  }

  /// Splits by finiteness for the query's bound positions and runs the
  /// buffered evaluator.
  StatusOr<std::vector<Tuple>> Evaluate(const CompiledChain& chain,
                                        const Atom& query,
                                        BufferedOptions options = {}) {
    std::vector<TermId> bound;
    for (size_t i = 0; i < query.args.size(); ++i) {
      if (db_.pool().IsGround(query.args[i])) {
        db_.pool().CollectVariables(chain.head().args[i], &bound);
      }
    }
    ChainPath whole = WholeBodyPath(db_.pool(), chain);
    auto split =
        SplitPathByFiniteness(db_.program(), chain, whole, bound);
    EXPECT_TRUE(split.ok()) << split.status();
    BufferedChainEvaluator evaluator(&db_, chain, options);
    auto result = evaluator.Evaluate(query, *split);
    stats_ = evaluator.stats();
    return result;
  }

  Database db_;
  std::vector<Rule> rectified_;
  BufferedStats stats_;
};

TEST_F(BufferedTest, AppendBffPaperShape) {
  // append([1,2],[3,4],W) via chain-split: forward decomposes the first
  // list buffering its elements, exit hands over the second list, the
  // delayed cons rebuilds W back-to-front (§2.2 / Remark 3.1).
  Load(AppendProgramSource());
  CompiledChain chain = Compile("append", 3);
  Atom query;
  query.pred = chain.pred;
  query.args = {MakeIntList(db_.pool(), {{1, 2}}),
                MakeIntList(db_.pool(), {{3, 4}}),
                db_.pool().MakeVariable("W")};
  auto answers = Evaluate(chain, query);
  ASSERT_TRUE(answers.ok()) << answers.status();
  ASSERT_EQ(answers->size(), 1u);
  auto ints = ListInts(db_.pool(), (*answers)[0][2]);
  ASSERT_TRUE(ints.has_value());
  EXPECT_EQ(*ints, (std::vector<int64_t>{1, 2, 3, 4}));
  // 3 call states: [1,2], [2], []; 2 buffered edges carrying 1 and 2.
  EXPECT_EQ(stats_.nodes, 3);
  EXPECT_EQ(stats_.buffered_values, 2);
  EXPECT_EQ(stats_.exit_solutions, 1);
}

TEST_F(BufferedTest, AppendEmptyFirstList) {
  Load(AppendProgramSource());
  CompiledChain chain = Compile("append", 3);
  Atom query;
  query.pred = chain.pred;
  query.args = {db_.pool().Nil(), MakeIntList(db_.pool(), {{9}}),
                db_.pool().MakeVariable("W")};
  auto answers = Evaluate(chain, query);
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->size(), 1u);
  auto ints = ListInts(db_.pool(), (*answers)[0][2]);
  EXPECT_EQ(*ints, (std::vector<int64_t>{9}));
  EXPECT_EQ(stats_.nodes, 1);
}

TEST_F(BufferedTest, AppendLongLists) {
  Load(AppendProgramSource());
  CompiledChain chain = Compile("append", 3);
  std::vector<int64_t> left = RandomInts(300, 0, 99, 3);
  std::vector<int64_t> right = RandomInts(200, 0, 99, 4);
  Atom query;
  query.pred = chain.pred;
  query.args = {MakeIntList(db_.pool(), left), MakeIntList(db_.pool(), right),
                db_.pool().MakeVariable("W")};
  auto answers = Evaluate(chain, query);
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->size(), 1u);
  auto ints = ListInts(db_.pool(), (*answers)[0][2]);
  ASSERT_TRUE(ints.has_value());
  std::vector<int64_t> expect = left;
  expect.insert(expect.end(), right.begin(), right.end());
  EXPECT_EQ(*ints, expect);
  EXPECT_EQ(stats_.nodes, 301);  // one state per suffix of `left`
}

TEST_F(BufferedTest, SgBehavesLikeCountingWithMemoization) {
  Load(StrCat(R"(
parent(c1, p1). parent(c2, p1).
parent(g1, c1). parent(g2, c2). parent(g3, c2).
sibling(c1, c2). sibling(c2, c1).
)",
              SgProgramSource()));
  CompiledChain chain = Compile("sg", 2);
  Atom query;
  query.pred = chain.pred;
  query.args = {db_.pool().MakeSymbol("g1"), db_.pool().MakeVariable("Y")};
  auto answers = Evaluate(chain, query);
  ASSERT_TRUE(answers.ok()) << answers.status();
  // g1's same-generation partners: g2 and g3 (through c1~c2).
  TermId g1 = db_.pool().MakeSymbol("g1");
  EXPECT_EQ(answers->size(), 2u);
  EXPECT_TRUE(std::find(answers->begin(), answers->end(),
                        Tuple{g1, db_.pool().MakeSymbol("g2")}) !=
              answers->end());
  EXPECT_TRUE(std::find(answers->begin(), answers->end(),
                        Tuple{g1, db_.pool().MakeSymbol("g3")}) !=
              answers->end());
}

TEST_F(BufferedTest, CyclicDataTerminatesViaMemoizedStates) {
  // A cyclic "next" relation: the call-state memoization is the
  // cyclic-counting extension the paper points to (Remark 3.1 / [5]).
  Load(R"(
next(a, b). next(b, c). next(c, a).
goal(c).
reach(X, found) :- goal(X).
reach(X, Y) :- next(X, X1), reach(X1, Y).
)");
  CompiledChain chain = Compile("reach", 2);
  Atom query;
  query.pred = chain.pred;
  query.args = {db_.pool().MakeSymbol("a"), db_.pool().MakeVariable("Y")};
  auto answers = Evaluate(chain, query);
  ASSERT_TRUE(answers.ok()) << answers.status();
  ASSERT_EQ(answers->size(), 1u);
  EXPECT_EQ((*answers)[0][1], db_.pool().MakeSymbol("found"));
  EXPECT_EQ(stats_.nodes, 3);  // a, b, c — each expanded once
}

TEST_F(BufferedTest, FullyBoundQueryActsAsBooleanCheck) {
  Load(AppendProgramSource());
  CompiledChain chain = Compile("append", 3);
  Atom query;
  query.pred = chain.pred;
  query.args = {MakeIntList(db_.pool(), {{1}}), MakeIntList(db_.pool(), {{2}}),
                MakeIntList(db_.pool(), {{1, 2}})};
  auto answers = Evaluate(chain, query);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 1u);

  query.args[2] = MakeIntList(db_.pool(), {{2, 1}});
  auto none = Evaluate(chain, query);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST_F(BufferedTest, IsortNestedLinearRecursion) {
  // §4.1: the outer isort chain splits; the delayed insert call is a
  // nested recursion solved per backward step.
  Load(IsortProgramSource());
  CompiledChain chain = Compile("isort", 2);
  Atom query;
  query.pred = chain.pred;
  query.args = {MakeIntList(db_.pool(), {{5, 7, 1}}),
                db_.pool().MakeVariable("Ys")};
  auto answers = Evaluate(chain, query);
  ASSERT_TRUE(answers.ok()) << answers.status();
  ASSERT_EQ(answers->size(), 1u);
  auto ints = ListInts(db_.pool(), (*answers)[0][1]);
  ASSERT_TRUE(ints.has_value());
  EXPECT_EQ(*ints, (std::vector<int64_t>{1, 5, 7}));
  // Buffered values 5, 7, 1 on the three forward edges.
  EXPECT_EQ(stats_.buffered_values, 3);
  EXPECT_EQ(stats_.nodes, 4);
}

TEST_F(BufferedTest, NodeCapTriggersOnRunawayChain) {
  Load(R"(
up(X, done) :- stop(X).
up(X, Y) :- Z is X + 1, up(Z, Y).
stop(1000000).
)");
  CompiledChain chain = Compile("up", 2);
  Atom query;
  query.pred = chain.pred;
  query.args = {db_.pool().MakeInt(0), db_.pool().MakeVariable("Y")};
  BufferedOptions options;
  options.max_nodes = 100;
  auto answers = Evaluate(chain, query, options);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(BufferedTest, WrongPredicateRejected) {
  Load(AppendProgramSource());
  CompiledChain chain = Compile("append", 3);
  Atom query;
  query.pred = db_.program().InternPred("other", 1);
  query.args = {db_.pool().MakeVariable("X")};
  BufferedChainEvaluator evaluator(&db_, chain, {});
  PathSplit split;
  auto answers = evaluator.Evaluate(query, split);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(BufferedTest, SplitThatCannotIterateForwardRejected) {
  // Query append(U, V, W) with only V bound: the evaluable portion
  // cannot produce the recursive call's bound argument V... V is a
  // pass-through, so instead bind nothing: adornment fff has no bound
  // position at all and the root state is empty — evaluable portion is
  // empty and cons goals are unevaluable: delayed; forward then cannot
  // bind U1 -> but wait, with no bound positions there is nothing to
  // check. Use first position free, third free, second bound: U free
  // breaks the forward iteration (rec arg U1 unbound? U1 is not a
  // bound *position*). The genuinely broken case: query with W free
  // and U free but evaluable needs U. Positions bound: none. The chain
  // still "runs": root state empty, forward solve over zero evaluable
  // literals... To keep this deterministic we assert the analysis
  // rejects a hand-made bad split instead.
  Load(AppendProgramSource());
  CompiledChain chain = Compile("append", 3);
  Atom query;
  query.pred = chain.pred;
  query.args = {MakeIntList(db_.pool(), {{1}}), db_.pool().MakeVariable("V"),
                db_.pool().MakeVariable("W")};
  // Hand-made split: everything delayed. Forward cannot bind U1.
  PathSplit split;
  ChainPath whole = WholeBodyPath(db_.pool(), chain);
  split.delayed = whole.literals;
  BufferedChainEvaluator evaluator(&db_, chain, {});
  auto answers = evaluator.Evaluate(query, split);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kNotFinitelyEvaluable);
}

// Property: buffered chain-split answers equal top-down SLD answers on
// append for random list lengths.
class BufferedAppendProperty
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BufferedAppendProperty, MatchesTopDown) {
  auto [n, m] = GetParam();
  Database db;
  ASSERT_TRUE(ParseProgram(AppendProgramSource(), &db.program()).ok());
  ASSERT_TRUE(db.LoadProgramFacts().ok());
  std::vector<Rule> rectified = RectifyRules(&db.program());
  AppendIdbFacts(db, &rectified);
  auto chain = CompileChain(db.program(), rectified,
                            db.program().preds().Find("append", 3).value());
  ASSERT_TRUE(chain.ok());

  TermId left = RandomIntList(db.pool(), n, 0, 9, 10 + n);
  TermId right = RandomIntList(db.pool(), m, 0, 9, 20 + m);
  TermId w = db.pool().MakeVariable("W");
  Atom query{chain->pred, {left, right, w}};

  std::vector<TermId> bound;
  db.pool().CollectVariables(chain->head().args[0], &bound);
  db.pool().CollectVariables(chain->head().args[1], &bound);
  ChainPath whole = WholeBodyPath(db.pool(), *chain);
  auto split = SplitPathByFiniteness(db.program(), *chain, whole, bound);
  ASSERT_TRUE(split.ok());
  BufferedChainEvaluator evaluator(&db, *chain, {});
  auto buffered = evaluator.Evaluate(query, *split);
  ASSERT_TRUE(buffered.ok()) << buffered.status();

  TopDownEvaluator solver(&db);
  auto reference = solver.Answers({query}, {w});
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(buffered->size(), reference->size());
  ASSERT_EQ(buffered->size(), 1u);
  EXPECT_EQ((*buffered)[0][2], (*reference)[0][0]);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BufferedAppendProperty,
    ::testing::Values(std::pair{0, 0}, std::pair{1, 0}, std::pair{0, 1},
                      std::pair{4, 4}, std::pair{16, 8}, std::pair{64, 64},
                      std::pair{256, 32}));

}  // namespace
}  // namespace chainsplit
