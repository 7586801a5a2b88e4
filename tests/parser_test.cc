#include "ast/parser.h"

#include <gtest/gtest.h>

#include <random>

#include "ast/builtin_names.h"
#include "ast/printer.h"
#include "common/strings.h"
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
  ASSERT_EQ(program_.num_staged_facts(), 1);
  EXPECT_TRUE(program_.rules().empty());
  std::vector<Atom> facts;
  program_.ForEachStagedFact([&](PredId pred, std::span<const TermId> args) {
    facts.push_back(Atom{pred, {args.begin(), args.end()}});
  });
  ASSERT_EQ(facts.size(), 1u);
  EXPECT_EQ(program_.preds().name(facts[0].pred), "parent");
  EXPECT_EQ(facts[0].args,
            (std::vector<TermId>{pool_.MakeSymbol("tom"),
                                 pool_.MakeSymbol("bob")}));
}

TEST_F(ParserTest, StagedFactsAreReleasedAndRolledBack) {
  ASSERT_TRUE(ParseProgram("p(a). q(b, c).", &program_).ok());
  const Program::Marker marker = program_.Mark();
  ASSERT_TRUE(ParseProgram("p(d). r(X) :- p(X).", &program_).ok());
  EXPECT_EQ(program_.num_staged_facts(), 3);
  program_.RollbackTo(marker);
  EXPECT_EQ(program_.num_staged_facts(), 2);
  EXPECT_TRUE(program_.rules().empty());
  EXPECT_EQ(ProgramToString(program_), "p(a).\nq(b, c).\n");
  program_.ReleaseStagedFacts();
  EXPECT_EQ(program_.num_staged_facts(), 0);
  EXPECT_EQ(ProgramToString(program_), "");
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
  EXPECT_EQ(program_.num_staged_facts(), 1);
}

TEST_F(ParserTest, NonGroundHeadBecomesRule) {
  ASSERT_TRUE(ParseProgram("append([], L, L).", &program_).ok());
  EXPECT_EQ(program_.num_staged_facts(), 0);
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
  EXPECT_EQ(program_.num_staged_facts(), 2);
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

TEST_F(ParserTest, BadCharacterAfterValidClausesReportsItsPosition) {
  Status status = ParseProgram("p(a).\nq(b) :- p(b).\nr(c, &).", &program_);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "unexpected character '&' at 3:6");
  // The clauses before the bad character were parsed and kept; callers
  // that need all-or-nothing roll back (Program::Mark / RollbackTo).
  EXPECT_EQ(program_.num_staged_facts(), 1);
  EXPECT_EQ(program_.rules().size(), 1u);
}

TEST_F(ParserTest, SyntaxErrorBeforeBadCharacterIsReportedFirst) {
  // The lexer runs only as far ahead as the parser: a syntax error that
  // comes before a bad character is the one reported.
  Status status = ParseProgram("p(a) q(b).\nr(&).", &program_);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "expected '.' at 1:6 (near 'q')");
  // A bad character right where the parser stops is reported as such.
  status = ParseProgram("p(a)&", &program_);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "unexpected character '&' at 1:5");
}

TEST_F(ParserTest, RejectsIntegerLiteralOutOfRange) {
  EXPECT_TRUE(ParseTerm("9223372036854775807", &program_).ok());
  StatusOr<TermId> term = ParseTerm("p(9223372036854775808)", &program_);
  ASSERT_FALSE(term.ok());
  EXPECT_EQ(term.status().message(),
            "integer literal out of range at 1:3 (near "
            "'9223372036854775808')");
}

TEST_F(ParserTest, RejectsTermsNestedTooDeep) {
  auto nested = [](int depth, std::string_view open, std::string_view close) {
    std::string text = "p(";
    for (int i = 0; i < depth; ++i) text += open;
    text += "a";
    for (int i = 0; i < depth; ++i) text += close;
    return text + ").";
  };
  EXPECT_TRUE(ParseProgram(nested(998, "f(", ")"), &program_).ok());
  EXPECT_TRUE(ParseProgram(nested(998, "[", "]"), &program_).ok());
  // Deep enough to overflow the machine stack without the cap.
  for (std::string_view open : {"f(", "[", "[b, "}) {
    Status status =
        ParseProgram(nested(200000, open, open == "f(" ? ")" : "]"), &program_);
    ASSERT_FALSE(status.ok()) << open;
    EXPECT_NE(status.message().find("term nested deeper than 1000 at 1:"),
              std::string::npos)
        << status.message();
  }
}

// Lexer edge cases: each text parses and prints back as `printed`.
TEST_F(ParserTest, LexerEdgeCasesRoundTrip) {
  struct Case {
    const char* text;
    const char* printed;
  };
  const Case cases[] = {
      {"p(a).", "p(a).\n"},                        // last token at EOF
      {"p(a). % comment at EOF", "p(a).\n"},       // no trailing newline
      {"p(a).\n%", "p(a).\n"},                     // empty comment at EOF
      {"p(X) :- q(X), X \\= b.", "p(X) :- q(X), X \\= b.\n"},
      {"p(-3).", "p(-3).\n"},
      {"p(Z) :- q(X), Z is X - 1.", "p(Z) :- q(X), sum(1, Z, X).\n"},
      {"p([a, b | T]) :- q(T).", "p([a, b | T]) :- q(T).\n"},
      {"p([a,b|T]):-q(T).", "p([a, b | T]) :- q(T).\n"},
      {"p(X):-X>=1,X=<2.", "p(X) :- X >= 1, X =< 2.\n"},
  };
  for (const Case& c : cases) {
    TermPool pool;
    Program program(&pool);
    Status status = ParseProgram(c.text, &program);
    ASSERT_TRUE(status.ok()) << c.text << ": " << status;
    EXPECT_EQ(ProgramToString(program), c.printed) << c.text;
  }
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
  EXPECT_EQ(program_.num_staged_facts(), 1);
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

// Byte-mutation sweep over the example programs: seeded flips, inserts,
// deletions and truncations. Every mutant must give an InvalidArgument
// Status with a position, or a program — never a crash (the asan preset
// runs this too). Budget: the 4 files x 2,500 mutants take ~0.1 s in
// Release and ~1.5 s under ASan/UBSan; ctest stops parser_test at 60 s.
TEST(ParserMutation, MutantsOfExampleProgramsNeverCrash) {
  const char* const kFiles[] = {"closure.dl", "same_generation.dl",
                                "sorting.dl", "travel.dl"};
  constexpr int kMutantsPerFile = 2500;
  std::mt19937_64 rng(1992);
  int parsed = 0;
  int rejected = 0;
  for (const char* file : kFiles) {
    StatusOr<std::string> source =
        ReadFileToString(StrCat(CHAINSPLIT_EXAMPLE_PROGRAMS_DIR, "/", file));
    ASSERT_TRUE(source.ok()) << source.status();
    {
      TermPool pool;
      Program program(&pool);
      ASSERT_TRUE(ParseProgram(*source, &program).ok()) << file;
    }
    for (int m = 0; m < kMutantsPerFile; ++m) {
      std::string text = *source;
      const int edits = 1 + static_cast<int>(rng() % 4);
      for (int e = 0; e < edits && !text.empty(); ++e) {
        const size_t at = rng() % text.size();
        switch (rng() % 4) {
          case 0:
            text[at] = static_cast<char>(rng() % 256);
            break;
          case 1:
            text.insert(at, 1, static_cast<char>(rng() % 256));
            break;
          case 2:
            text.erase(at, 1);
            break;
          default:
            text.resize(at);
            break;
        }
      }
      TermPool pool;
      Program program(&pool);
      Status status = ParseProgram(text, &program);
      if (status.ok()) {
        ++parsed;
        continue;
      }
      ++rejected;
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << text;
      EXPECT_NE(status.message().find(" at "), std::string::npos)
          << status.message();
    }
  }
  // Both outcomes occur, so the sweep exercises both paths.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace chainsplit
