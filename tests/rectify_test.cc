#include "core/rectify.h"

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "ast/printer.h"
#include "engine/grounder.h"

namespace chainsplit {
namespace {

class RectifyTest : public ::testing::Test {
 protected:
  RectifyTest() : program_(&pool_) {}

  void Load(std::string_view text) {
    ASSERT_TRUE(ParseProgram(text, &program_).ok());
  }

  TermPool pool_;
  Program program_;
};

TEST_F(RectifyTest, FlatRuleUnchanged) {
  Load("p(X, Y) :- e(X, Z), e(Z, Y).");
  Rule flat = RectifyRule(&program_, program_.rules()[0]);
  EXPECT_EQ(flat, program_.rules()[0]);
}

TEST_F(RectifyTest, IsFlatRuleDetection) {
  Load("p(X) :- q([X|Xs]).");
  EXPECT_FALSE(IsFlatRule(pool_, program_.rules()[0]));
  Load("p(X) :- q(X).");
  EXPECT_TRUE(IsFlatRule(pool_, program_.rules()[1]));
}

TEST_F(RectifyTest, HeadListPatternBecomesConsGoal) {
  // Paper rules (4.1)/(4.6): isort([X|Xs], Ys) gets cons(X, Xs, V).
  Load("isort([X|Xs], Ys) :- isort(Xs, Zs), insert(X, Zs, Ys).");
  Rule flat = RectifyRule(&program_, program_.rules()[0]);
  EXPECT_TRUE(IsFlatRule(pool_, flat));
  ASSERT_EQ(flat.body.size(), 3u);
  EXPECT_EQ(program_.preds().name(flat.body[0].pred), "cons");
  // The cons goal's output variable is the new head argument.
  EXPECT_EQ(flat.body[0].args[2], flat.head.args[0]);
  EXPECT_EQ(flat.body[0].args[0], pool_.MakeVariable("X"));
  EXPECT_EQ(flat.body[0].args[1], pool_.MakeVariable("Xs"));
}

TEST_F(RectifyTest, NestedListPatternRecurses) {
  // insert(X, [Y|Ys], [X, Y|Ys]): the third arg is a two-deep pattern.
  Load("insert(X, [Y|Ys], [X, Y|Ys]) :- X =< Y.");
  Rule flat = RectifyRule(&program_, program_.rules()[0]);
  EXPECT_TRUE(IsFlatRule(pool_, flat));
  int cons_goals = 0;
  for (const Atom& atom : flat.body) {
    if (program_.preds().name(atom.pred) == "cons") ++cons_goals;
  }
  // [Y|Ys] needs 1 cons; [X,Y|Ys] = [X|[Y|Ys]] needs 2 (inner shared?
  // inner [Y|Ys] is its own goal) -> 3 total.
  EXPECT_EQ(cons_goals, 3);
}

TEST_F(RectifyTest, GroundListStaysConstant) {
  Load("p(X) :- q([1, 2, 3], X).");
  Rule flat = RectifyRule(&program_, program_.rules()[0]);
  EXPECT_EQ(flat, program_.rules()[0]);  // ground compound is a constant
}

TEST_F(RectifyTest, NonConsFunctorUsesMkPredicate) {
  Load("p(X) :- q(pair(X, Y)).");
  Rule flat = RectifyRule(&program_, program_.rules()[0]);
  EXPECT_TRUE(IsFlatRule(pool_, flat));
  bool has_mk = false;
  for (const Atom& atom : flat.body) {
    if (program_.preds().name(atom.pred) == "$mk_pair") has_mk = true;
  }
  EXPECT_TRUE(has_mk);
}

TEST_F(RectifyTest, RectifiedRuleIsCompilable) {
  // After rectification, a rule over bound lists schedules bottom-up.
  Load("first(L, X) :- cons(X, Xs, L).");
  Rule rule = program_.rules()[0];
  EXPECT_TRUE(IsFlatRule(pool_, rule));
  // first with L bound position... bottom-up still cannot enumerate L;
  // so CompileRule must reject — the binding must come from a relation.
  auto compiled = CompileRule(program_, rule);
  EXPECT_FALSE(compiled.ok());
}

TEST_F(RectifyTest, RectifyAtomFlattensQueryGoal) {
  Load("dummy(a).");
  auto atom = ParseAtom("isort([X|Xs], Ys)", &program_);
  ASSERT_TRUE(atom.ok());
  std::vector<Atom> extra;
  Atom flat = RectifyAtom(&program_, *atom, &extra);
  EXPECT_EQ(extra.size(), 1u);
  EXPECT_TRUE(pool_.IsVariable(flat.args[0]));
}

TEST_F(RectifyTest, RectifyRulesProcessesWholeProgram) {
  Load(R"(
isort([X|Xs], Ys) :- isort(Xs, Zs), insert(X, Zs, Ys).
insert(X, [], [X]).
insert(X, [Y|Ys], [Y|Zs]) :- X > Y, insert(X, Ys, Zs).
insert(X, [Y|Ys], [X, Y|Ys]) :- X =< Y.
)");
  std::vector<Rule> flat = RectifyRules(&program_);
  ASSERT_EQ(flat.size(), program_.rules().size());
  for (const Rule& rule : flat) {
    EXPECT_TRUE(IsFlatRule(pool_, rule)) << RuleToString(program_, rule);
  }
}

TEST_F(RectifyTest, AppendIdbFactsKeepsProgramOrder) {
  Database db;
  ASSERT_TRUE(ParseProgram(R"(
q(b). e(a). p(a). e(b). q(a). p(b). e(c).
p(X) :- e(X).
q(X) :- p(X).
)",
                           &db.program())
                  .ok());
  ASSERT_TRUE(db.LoadProgramFacts().ok());
  const PredId q = db.program().preds().Find("q", 1).value();
  db.InsertFact(q, {db.pool().MakeSymbol("c")});  // a row with no fact
  std::vector<Rule> rules = RectifyRules(&db.program());
  AppendIdbFacts(db, &rules);
  ASSERT_EQ(rules.size(), 7u);
  std::vector<std::string> appended;
  for (size_t i = 2; i < rules.size(); ++i) {
    EXPECT_TRUE(rules[i].body.empty());
    appended.push_back(RuleToString(db.program(), rules[i]));
  }
  // The rows of each IDB predicate in relation (insertion) order, by
  // first defining rule; the EDB rows of e stay out.
  EXPECT_EQ(appended, (std::vector<std::string>{"p(a).", "p(b).", "q(b).",
                                                "q(a).", "q(c)."}));
}

}  // namespace
}  // namespace chainsplit
