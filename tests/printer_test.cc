#include "ast/printer.h"

#include <gtest/gtest.h>

#include "ast/parser.h"

namespace chainsplit {
namespace {

class PrinterTest : public ::testing::Test {
 protected:
  PrinterTest() : program_(&pool_) {}
  TermPool pool_;
  Program program_;
};

TEST_F(PrinterTest, RendersAtomAndRule) {
  ASSERT_TRUE(
      ParseProgram("sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).",
                   &program_)
          .ok());
  EXPECT_EQ(RuleToString(program_, program_.rules()[0]),
            "sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).");
}

TEST_F(PrinterTest, RendersFactAndComparisonInfix) {
  ASSERT_TRUE(ParseProgram("p(X) :- q(X), X > 3.", &program_).ok());
  EXPECT_EQ(RuleToString(program_, program_.rules()[0]),
            "p(X) :- q(X), X > 3.");
}

TEST_F(PrinterTest, RendersQuery) {
  ASSERT_TRUE(ParseProgram("?- sg(tom, Y).", &program_).ok());
  EXPECT_EQ(QueryToString(program_, program_.queries()[0]),
            "?- sg(tom, Y).");
}

TEST_F(PrinterTest, RendersListsInAtoms) {
  ASSERT_TRUE(ParseProgram("?- isort([5, 7, 1], Ys).", &program_).ok());
  EXPECT_EQ(QueryToString(program_, program_.queries()[0]),
            "?- isort([5, 7, 1], Ys).");
}

TEST_F(PrinterTest, ProgramRoundTripsThroughParser) {
  const char* source = R"(e(a, b).
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
?- tc(a, Y).
)";
  ASSERT_TRUE(ParseProgram(source, &program_).ok());
  std::string printed = ProgramToString(program_);
  // Parse the printed text again: same clause counts.
  TermPool pool2;
  Program reparsed(&pool2);
  ASSERT_TRUE(ParseProgram(printed, &reparsed).ok());
  EXPECT_EQ(reparsed.num_staged_facts(), program_.num_staged_facts());
  EXPECT_EQ(reparsed.rules().size(), program_.rules().size());
  EXPECT_EQ(reparsed.queries().size(), program_.queries().size());
  // And printing again is a fixpoint.
  EXPECT_EQ(ProgramToString(reparsed), printed);
}

TEST_F(PrinterTest, ZeroArityAtom) {
  ASSERT_TRUE(ParseProgram("go :- e(X, Y).", &program_).ok());
  EXPECT_EQ(RuleToString(program_, program_.rules()[0]),
            "go :- e(X, Y).");
}

}  // namespace
}  // namespace chainsplit
