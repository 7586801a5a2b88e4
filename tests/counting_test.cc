#include "core/counting.h"

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "common/strings.h"
#include "core/buffered.h"
#include "core/rectify.h"
#include "workload/family_gen.h"

namespace chainsplit {
namespace {

class CountingTest : public ::testing::Test {
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

  PathSplit Split(const CompiledChain& chain, const Atom& query) {
    std::vector<TermId> bound;
    for (size_t i = 0; i < query.args.size(); ++i) {
      if (db_.pool().IsGround(query.args[i])) {
        db_.pool().CollectVariables(chain.head().args[i], &bound);
      }
    }
    ChainPath whole = WholeBodyPath(db_.pool(), chain);
    auto split = SplitPathByFiniteness(db_.program(), chain, whole, bound);
    EXPECT_TRUE(split.ok()) << split.status();
    return *split;
  }

  Database db_;
  std::vector<Rule> rectified_;
  CountingStats stats_;
};

TEST_F(CountingTest, SgOnTreeMatchesExpectedAnswers) {
  Load(StrCat(R"(
parent(c1, p1). parent(c2, p1).
parent(g1, c1). parent(g2, c2). parent(g3, c2).
sibling(c1, c2). sibling(c2, c1).
)",
              SgProgramSource()));
  CompiledChain chain = Compile("sg", 2);
  Atom query{chain.pred,
             {db_.pool().MakeSymbol("g1"), db_.pool().MakeVariable("Y")}};
  auto answers = CountingEvaluate(&db_, chain, Split(chain, query), query,
                                  {}, &stats_);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(answers->size(), 2u);
  EXPECT_EQ(stats_.levels, 3);  // g1 -> c1 -> p1 -> (no parents)
}

TEST_F(CountingTest, MatchesBufferedOnFamilies) {
  FamilyOptions fam;
  fam.num_families = 2;
  fam.depth = 5;
  fam.fanout = 2;
  fam.materialize_same_country = false;
  FamilyData data = GenerateFamily(&db_, fam);
  Load(SgProgramSource());
  CompiledChain chain = Compile("sg", 2);
  Atom query{chain.pred, {data.query_person, db_.pool().MakeVariable("Y")}};
  PathSplit split = Split(chain, query);

  auto counting =
      CountingEvaluate(&db_, chain, split, query, {}, &stats_);
  ASSERT_TRUE(counting.ok()) << counting.status();

  BufferedChainEvaluator buffered(&db_, chain, {});
  auto memo = buffered.Evaluate(query, split);
  ASSERT_TRUE(memo.ok()) << memo.status();

  ASSERT_EQ(counting->size(), memo->size());
  for (const Tuple& t : *counting) {
    EXPECT_NE(std::find(memo->begin(), memo->end(), t), memo->end());
  }
}

TEST_F(CountingTest, CyclicDataHitsLevelCap) {
  Load(R"(
next(a, b). next(b, a).
goal(b).
reach(X, found) :- goal(X).
reach(X, Y) :- next(X, X1), reach(X1, Y).
)");
  CompiledChain chain = Compile("reach", 2);
  Atom query{chain.pred,
             {db_.pool().MakeSymbol("a"), db_.pool().MakeVariable("Y")}};
  CountingOptions options;
  options.max_levels = 40;
  auto answers = CountingEvaluate(&db_, chain, Split(chain, query), query,
                                  options, &stats_);
  // The classic counting method loops on the 2-cycle: resource error —
  // exactly the limitation the memoized buffered evaluator removes.
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(CountingTest, ReexpandsSharedStatesUnlikeBuffered) {
  // Diamond-shaped ancestry: counting re-expands the shared ancestor,
  // buffered memoizes it. Both return the same answers; counting does
  // at least as much up-phase work as buffered has nodes.
  Load(StrCat(R"(
parent(x, m1). parent(x, m2).
parent(m1, top). parent(m2, top).
parent(y, n1). parent(n1, top).
sibling(top, top).
)",
              SgProgramSource()));
  CompiledChain chain = Compile("sg", 2);
  Atom query{chain.pred,
             {db_.pool().MakeSymbol("x"), db_.pool().MakeVariable("Y")}};
  PathSplit split = Split(chain, query);
  auto counting =
      CountingEvaluate(&db_, chain, split, query, {}, &stats_);
  ASSERT_TRUE(counting.ok());

  BufferedChainEvaluator buffered(&db_, chain, {});
  auto memo = buffered.Evaluate(query, split);
  ASSERT_TRUE(memo.ok());
  EXPECT_EQ(counting->size(), memo->size());
  // Counting's up-entries count `top` twice (via m1 and m2); buffered
  // keeps one node.
  EXPECT_GT(stats_.up_entries, buffered.stats().nodes);
}

}  // namespace
}  // namespace chainsplit
