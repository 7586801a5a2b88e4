#include "core/chain_compile.h"

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "core/rectify.h"
#include "workload/list_gen.h"

namespace chainsplit {
namespace {

class ChainCompileTest : public ::testing::Test {
 protected:
  StatusOr<CompiledChain> Compile(std::string_view text,
                                  std::string_view pred, int arity) {
    EXPECT_TRUE(ParseProgram(text, &program_).ok());
    EXPECT_TRUE(db_.LoadProgramFacts().ok());
    rectified_ = RectifyRules(&program_);
    AppendIdbFacts(db_, &rectified_);
    return CompileChain(program_, rectified_,
                        program_.preds().Find(pred, arity).value());
  }

  Database db_;
  Program& program_ = db_.program();
  std::vector<Rule> rectified_;
};

TEST_F(ChainCompileTest, SgCompilesIntoTwoPaths) {
  auto chain = Compile(R"(
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
)",
                       "sg", 2);
  ASSERT_TRUE(chain.ok()) << chain.status();
  EXPECT_EQ(chain->paths.size(), 2u);  // {parent(X,X1)}, {parent(Y,Y1)}
  EXPECT_EQ(chain->exit_rules.size(), 1u);
  EXPECT_EQ(chain->recursive_literal, 1);
  for (const ChainPath& path : chain->paths) {
    EXPECT_EQ(path.literals.size(), 1u);
    EXPECT_EQ(path.head_vars.size(), 1u);
    EXPECT_EQ(path.rec_vars.size(), 1u);
  }
}

TEST_F(ChainCompileTest, ScsgCompilesIntoSinglePath) {
  // Example 1.2: same_country connects the two parent literals into
  // ONE chain generating path — the one chain-split must split.
  auto chain = Compile(R"(
scsg(X, Y) :- sibling(X, Y).
scsg(X, Y) :- parent(X, X1), same_country(X1, Y1), parent(Y, Y1),
              scsg(X1, Y1).
)",
                       "scsg", 2);
  ASSERT_TRUE(chain.ok()) << chain.status();
  ASSERT_EQ(chain->paths.size(), 1u);
  EXPECT_EQ(chain->paths[0].literals.size(), 3u);
  EXPECT_EQ(chain->paths[0].head_vars.size(), 2u);  // X and Y
  EXPECT_EQ(chain->paths[0].rec_vars.size(), 2u);   // X1 and Y1
}

TEST_F(ChainCompileTest, AppendChainHasConnectedConsPredicates) {
  // Rule (1.16)/(1.17): one path {cons(X1,U1,U), cons(X1,W1,W)}.
  auto chain = Compile(AppendProgramSource(), "append", 3);
  ASSERT_TRUE(chain.ok()) << chain.status();
  ASSERT_EQ(chain->paths.size(), 1u);
  EXPECT_EQ(chain->paths[0].literals.size(), 2u);
}

TEST_F(ChainCompileTest, TravelChainConnectsFlightSumCons) {
  auto chain = Compile(R"(
travel(L, D, A, F) :- flight(Fno, D, A, F), cons(Fno, [], L).
travel(L, D, A, F) :- flight(Fno, D, A1, F1), travel(L1, A1, A, F2),
                      F is F1 + F2, cons(Fno, L1, L).
)",
                       "travel", 4);
  ASSERT_TRUE(chain.ok()) << chain.status();
  ASSERT_EQ(chain->paths.size(), 1u);  // flight-sum-cons all connected
  EXPECT_EQ(chain->paths[0].literals.size(), 3u);
  EXPECT_EQ(chain->exit_rules.size(), 1u);
}

TEST_F(ChainCompileTest, NoRecursiveRuleRejected) {
  auto chain = Compile("p(X) :- e(X).", "p", 1);
  ASSERT_FALSE(chain.ok());
  EXPECT_EQ(chain.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ChainCompileTest, NoExitRuleRejected) {
  auto chain = Compile("p(X) :- e(X, Y), p(Y).", "p", 1);
  ASSERT_FALSE(chain.ok());
  EXPECT_EQ(chain.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ChainCompileTest, NonLinearRuleRejected) {
  auto chain = Compile(R"(
p(X, Y) :- e(X, Y).
p(X, Y) :- p(X, Z), p(Z, Y).
)",
                       "p", 2);
  ASSERT_FALSE(chain.ok());
  EXPECT_EQ(chain.status().code(), StatusCode::kUnimplemented);
}

TEST_F(ChainCompileTest, MultipleRecursiveRulesRejected) {
  auto chain = Compile(R"(
p(X, Y) :- e(X, Y).
p(X, Y) :- e(X, Z), p(Z, Y).
p(X, Y) :- f(X, Z), p(Z, Y).
)",
                       "p", 2);
  ASSERT_FALSE(chain.ok());
  EXPECT_EQ(chain.status().code(), StatusCode::kUnimplemented);
}

TEST_F(ChainCompileTest, MultipleExitRulesKept) {
  auto chain = Compile(R"(
p(X, Y) :- e0(X, Y).
p(X, Y) :- e1(X, Y).
p(X, Y) :- e(X, Z), p(Z, Y).
)",
                       "p", 2);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->exit_rules.size(), 2u);
}

TEST_F(ChainCompileTest, ToStringMentionsPathsAndExits) {
  auto chain = Compile(R"(
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
)",
                       "sg", 2);
  ASSERT_TRUE(chain.ok());
  std::string text = CompiledChainToString(program_, *chain);
  EXPECT_NE(text.find("2 chain generating path(s)"), std::string::npos);
  EXPECT_NE(text.find("exit:"), std::string::npos);
}

}  // namespace
}  // namespace chainsplit
