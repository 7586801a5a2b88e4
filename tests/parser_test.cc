#include "ast/parser.h"

#include <gtest/gtest.h>

#include <random>

#include "ast/builtin_names.h"
#include "ast/printer.h"
#include "term/list_utils.h"

namespace chainsplit {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  ParserTest() : program_(&pool_) {}
  TermPool pool_;
  Program program_;
};

TEST_F(ParserTest, ParsesGroundFact) {
  ASSERT_TRUE(ParseProgram("parent(tom, bob).", &program_).ok());
  ASSERT_EQ(program_.facts().size(), 1u);
  EXPECT_TRUE(program_.rules().empty());
  const Atom& fact = program_.facts()[0];
  EXPECT_EQ(program_.preds().name(fact.pred), "parent");
  EXPECT_EQ(fact.args[0], pool_.MakeSymbol("tom"));
  EXPECT_EQ(fact.args[1], pool_.MakeSymbol("bob"));
}

TEST_F(ParserTest, ParsesRuleWithBody) {
  ASSERT_TRUE(
      ParseProgram("sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).",
                   &program_)
          .ok());
  ASSERT_EQ(program_.rules().size(), 1u);
  const Rule& rule = program_.rules()[0];
  EXPECT_EQ(rule.body.size(), 3u);
  EXPECT_EQ(rule.head.args[0], pool_.MakeVariable("X"));
  EXPECT_EQ(rule.body[1].pred, rule.head.pred);
}

TEST_F(ParserTest, ParsesQuery) {
  ASSERT_TRUE(ParseProgram("?- sg(tom, Y).", &program_).ok());
  ASSERT_EQ(program_.queries().size(), 1u);
  EXPECT_EQ(program_.queries()[0].goals.size(), 1u);
}

TEST_F(ParserTest, ParsesListSugar) {
  auto term = ParseTerm("[1, 2 | T]", &program_);
  ASSERT_TRUE(term.ok());
  EXPECT_EQ(pool_.ToString(*term), "[1, 2 | T]");
  auto ground = ParseTerm("[5, 7, 1]", &program_);
  ASSERT_TRUE(ground.ok());
  auto ints = ListInts(pool_, *ground);
  ASSERT_TRUE(ints.has_value());
  EXPECT_EQ(*ints, (std::vector<int64_t>{5, 7, 1}));
  auto empty = ParseTerm("[]", &program_);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(pool_.IsNil(*empty));
}

TEST_F(ParserTest, DesugarsComparisons) {
  ASSERT_TRUE(
      ParseProgram("p(X, Y) :- q(X, Y), X > Y, X \\= 3.", &program_).ok());
  const Rule& rule = program_.rules()[0];
  ASSERT_EQ(rule.body.size(), 3u);
  EXPECT_EQ(program_.preds().name(rule.body[1].pred), kPredGt);
  EXPECT_EQ(program_.preds().name(rule.body[2].pred), kPredNe);
}

TEST_F(ParserTest, DesugarsIsArithmetic) {
  ASSERT_TRUE(
      ParseProgram("p(Z) :- q(X, Y), Z is X + Y.", &program_).ok());
  const Atom& sum = program_.rules()[0].body[1];
  EXPECT_EQ(program_.preds().name(sum.pred), kPredSum);
  ASSERT_EQ(sum.args.size(), 3u);
  EXPECT_EQ(sum.args[0], pool_.MakeVariable("X"));
  EXPECT_EQ(sum.args[1], pool_.MakeVariable("Y"));
  EXPECT_EQ(sum.args[2], pool_.MakeVariable("Z"));
}

TEST_F(ParserTest, DesugarsIsSubtractionIntoSum) {
  // Z is X - Y  <=>  X = Y + Z  <=>  sum(Y, Z, X).
  ASSERT_TRUE(ParseProgram("p(Z) :- q(X, Y), Z is X - Y.", &program_).ok());
  const Atom& sum = program_.rules()[0].body[1];
  EXPECT_EQ(program_.preds().name(sum.pred), kPredSum);
  EXPECT_EQ(sum.args[0], pool_.MakeVariable("Y"));
  EXPECT_EQ(sum.args[1], pool_.MakeVariable("Z"));
  EXPECT_EQ(sum.args[2], pool_.MakeVariable("X"));
}

TEST_F(ParserTest, ParsesEqualityAndUnderscore) {
  ASSERT_TRUE(ParseProgram("p(X, Y) :- X = Y, q(_, _).", &program_).ok());
  const Rule& rule = program_.rules()[0];
  EXPECT_EQ(program_.preds().name(rule.body[0].pred), kPredEq);
  // Each _ is a distinct fresh variable.
  EXPECT_NE(rule.body[1].args[0], rule.body[1].args[1]);
}

TEST_F(ParserTest, NegativeIntegerLiteral) {
  auto term = ParseTerm("-12", &program_);
  ASSERT_TRUE(term.ok());
  EXPECT_EQ(pool_.int_value(*term), -12);
}

TEST_F(ParserTest, CompoundTermsInFacts) {
  // A ground compound argument is a constant: still a fact.
  ASSERT_TRUE(ParseProgram("likes(pair(a, b), tom).", &program_).ok());
  EXPECT_EQ(program_.facts().size(), 1u);
}

TEST_F(ParserTest, NonGroundHeadBecomesRule) {
  ASSERT_TRUE(ParseProgram("append([], L, L).", &program_).ok());
  EXPECT_TRUE(program_.facts().empty());
  ASSERT_EQ(program_.rules().size(), 1u);
  EXPECT_TRUE(program_.rules()[0].body.empty());
}

TEST_F(ParserTest, CommentsAndWhitespace) {
  ASSERT_TRUE(ParseProgram(R"(
% a comment
p(a).   % trailing comment

p(b).
)",
                           &program_)
                  .ok());
  EXPECT_EQ(program_.facts().size(), 2u);
}

TEST_F(ParserTest, ErrorsCarryPosition) {
  Status status = ParseProgram("p(a) q(b).", &program_);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("1:"), std::string::npos);
}

TEST_F(ParserTest, RejectsUnterminatedClause) {
  EXPECT_FALSE(ParseProgram("p(a)", &program_).ok());
  EXPECT_FALSE(ParseProgram("p(a", &program_).ok());
  EXPECT_FALSE(ParseProgram("p(a,).", &program_).ok());
}

TEST_F(ParserTest, RejectsUnknownCharacter) {
  Status status = ParseProgram("p(a) &- q(b).", &program_);
  EXPECT_FALSE(status.ok());
}

TEST_F(ParserTest, ParsesIsortProgramShape) {
  ASSERT_TRUE(ParseProgram(R"(
isort([X|Xs], Ys) :- isort(Xs, Zs), insert(X, Zs, Ys).
isort([], []).
insert(X, [], [X]).
insert(X, [Y|Ys], [Y|Zs]) :- X > Y, insert(X, Ys, Zs).
insert(X, [Y|Ys], [X, Y|Ys]) :- X =< Y.
)",
                           &program_)
                  .ok());
  // isort([], []) is ground -> fact; the rest are rules.
  EXPECT_EQ(program_.facts().size(), 1u);
  EXPECT_EQ(program_.rules().size(), 4u);
}

TEST_F(ParserTest, ParseAtomHelper) {
  auto atom = ParseAtom("sg(tom, Y)", &program_);
  ASSERT_TRUE(atom.ok());
  EXPECT_EQ(program_.preds().Display(atom->pred), "sg/2");
}

TEST_F(ParserTest, LowercaseConstantComparison) {
  // "x < y" where x is a constant symbol: parsed as comparison goal.
  ASSERT_TRUE(ParseProgram("p :- q(X), X > 3.", &program_).ok());
  EXPECT_EQ(program_.rules().size(), 1u);
}

// Robustness sweep: malformed inputs must produce an error Status (or
// parse), never crash. The inputs are byte soups generated from a
// grammar-ish alphabet so some are valid prefixes.
class ParserRobustness : public ::testing::TestWithParam<int> {};

TEST_P(ParserRobustness, GarbageNeverCrashes) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()));
  const std::string alphabet = "abXY09(),.[]|:-?<>=\\ \t\n%+*_";
  for (int round = 0; round < 200; ++round) {
    std::string input;
    size_t len = rng() % 60;
    for (size_t i = 0; i < len; ++i) {
      input.push_back(alphabet[rng() % alphabet.size()]);
    }
    TermPool pool;
    Program program(&pool);
    Status status = ParseProgram(input, &program);
    // Either outcome is fine; what matters is no crash and a usable
    // Status object.
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
      EXPECT_FALSE(status.ToString().empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRobustness, ::testing::Range(1, 6));

}  // namespace
}  // namespace chainsplit
