#include "engine/grounder.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "ast/parser.h"
#include "rel/catalog.h"

namespace chainsplit {
namespace {

class GrounderTest : public ::testing::Test {
 protected:
  // Parses one rule (last rule of `text`) into the db's program.
  Rule ParseRule(std::string_view text) {
    Status status = ParseProgram(text, &db_.program());
    EXPECT_TRUE(status.ok()) << status;
    return db_.program().rules().back();
  }

  void LoadFacts(std::string_view text) {
    ASSERT_TRUE(ParseProgram(text, &db_.program()).ok());
    ASSERT_TRUE(db_.LoadProgramFacts().ok());
  }

  // Runs `rule` once and returns the distinct head rows it emitted;
  // `counters_` holds the run's work.
  Relation Run(const CompiledRule& rule, int delta_literal = -1,
               RowRange delta = {}) {
    std::vector<TermId> emitted;
    counters_ = EvalCounters{};
    Status status =
        EvaluateRule(&db_, rule, delta_literal, delta, &emitted, &counters_);
    EXPECT_TRUE(status.ok()) << status;
    const int arity = static_cast<int>(rule.head_args.size());
    EXPECT_EQ(static_cast<int64_t>(emitted.size()),
              counters_.derivations * arity);
    Relation out(arity);
    for (int64_t i = 0; i < counters_.derivations; ++i) {
      out.Insert(Relation::Row(emitted.data() + i * arity, arity));
    }
    return out;
  }

  Database db_;
  EvalCounters counters_;
};

TEST_F(GrounderTest, CompilesFlatRule) {
  Rule rule = ParseRule("p(X, Y) :- e(X, Z), e(Z, Y).");
  auto compiled = CompileRule(db_.program(), rule);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_EQ(compiled->slot_vars.size(), 3u);
  EXPECT_EQ(compiled->body.size(), 2u);
  EXPECT_EQ(compiled->order.size(), 2u);
}

TEST_F(GrounderTest, RejectsNonFlatRule) {
  Rule rule = ParseRule("p(X) :- q([X|Xs]).");
  auto compiled = CompileRule(db_.program(), rule);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GrounderTest, RejectsNonRangeRestrictedRule) {
  Rule rule = ParseRule("p(X, Y) :- e(X, X).");
  auto compiled = CompileRule(db_.program(), rule);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kNotFinitelyEvaluable);
}

TEST_F(GrounderTest, RejectsUnschedulableBuiltin) {
  // cons(X, Xs, L) with everything unbound can never run bottom-up.
  Rule rule = ParseRule("p(L) :- cons(X, Xs, L).");
  auto compiled = CompileRule(db_.program(), rule);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kNotFinitelyEvaluable);
}

TEST_F(GrounderTest, SchedulesComparisonAfterBindingLiteral) {
  Rule rule = ParseRule("p(X) :- X > Y, e(X, Y).");
  auto compiled = CompileRule(db_.program(), rule);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  // The relation literal (index 1) must run before the comparison (0).
  ASSERT_EQ(compiled->order.size(), 2u);
  EXPECT_EQ(compiled->order[0], 1);
  EXPECT_EQ(compiled->order[1], 0);
}

TEST_F(GrounderTest, EvaluatesJoin) {
  LoadFacts("e(a, b). e(b, c). e(c, d).");
  Rule rule = ParseRule("p(X, Y) :- e(X, Z), e(Z, Y).");
  auto compiled = CompileRule(db_.program(), rule);
  ASSERT_TRUE(compiled.ok());
  Relation out = Run(*compiled);
  EXPECT_EQ(out.size(), 2);  // (a,c), (b,d)
  TermId a = db_.pool().MakeSymbol("a");
  TermId c = db_.pool().MakeSymbol("c");
  EXPECT_TRUE(out.Contains({a, c}));
  EXPECT_GT(counters_.derivations, 0);
}

TEST_F(GrounderTest, EvaluatesWithConstantsInBody) {
  LoadFacts("e(a, b). e(a, c). e(b, c).");
  Rule rule = ParseRule("p(Y) :- e(a, Y).");
  auto compiled = CompileRule(db_.program(), rule);
  ASSERT_TRUE(compiled.ok());
  Relation out = Run(*compiled);
  EXPECT_EQ(out.size(), 2);
}

TEST_F(GrounderTest, EvaluatesBuiltinFilterAndArithmetic) {
  LoadFacts("n(1). n(2). n(3). n(4).");
  Rule rule = ParseRule("big(Y) :- n(X), X > 2, Y is X + 10.");
  auto compiled = CompileRule(db_.program(), rule);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  Relation out = Run(*compiled);
  EXPECT_EQ(out.size(), 2);
  EXPECT_TRUE(out.Contains({db_.pool().MakeInt(13)}));
  EXPECT_TRUE(out.Contains({db_.pool().MakeInt(14)}));
}

TEST_F(GrounderTest, RepeatedVariableInLiteral) {
  LoadFacts("e(a, a). e(a, b). e(b, b).");
  Rule rule = ParseRule("loop(X) :- e(X, X).");
  auto compiled = CompileRule(db_.program(), rule);
  ASSERT_TRUE(compiled.ok());
  Relation out = Run(*compiled);
  EXPECT_EQ(out.size(), 2);  // a and b
}

TEST_F(GrounderTest, DeltaLiteralSubstitution) {
  LoadFacts("e(a, b). e(b, c). p0(a, a). p0(a, b).");
  Rule rule = ParseRule("p(X, Y) :- p0(X, Z), e(Z, Y).");
  auto compiled = CompileRule(db_.program(), rule, /*first_literal=*/0);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->order[0], 0);
  // The delta is p0's second row only; only joins through it are derived.
  Relation out = Run(*compiled, /*delta_literal=*/0, RowRange{1, 2});
  TermId a = db_.pool().MakeSymbol("a");
  TermId c = db_.pool().MakeSymbol("c");
  EXPECT_EQ(out.size(), 1);
  EXPECT_TRUE(out.Contains({a, c}));
  EXPECT_EQ(counters_.tuples_considered, 2);  // one delta row, one e probe
  // An empty range derives nothing and considers nothing.
  EXPECT_TRUE(Run(*compiled, 0, RowRange{2, 2}).empty());
  EXPECT_EQ(counters_.tuples_considered, 0);
}

TEST_F(GrounderTest, DeltaWithConstantScansTheRange) {
  LoadFacts("p0(a, b). p0(b, c). p0(a, d). p0(b, e). p0(a, f).");
  Rule rule = ParseRule("p(Y) :- p0(a, Y).");
  auto compiled = CompileRule(db_.program(), rule, /*first_literal=*/0);
  ASSERT_TRUE(compiled.ok());
  // Rows 1..4 hold (a, d) and (a, f) among others. A delta range has no
  // index, so every row in it is considered and the constant filters.
  Relation out = Run(*compiled, 0, RowRange{1, 5});
  EXPECT_EQ(out.size(), 2);
  EXPECT_TRUE(out.Contains({db_.pool().MakeSymbol("d")}));
  EXPECT_TRUE(out.Contains({db_.pool().MakeSymbol("f")}));
  EXPECT_EQ(counters_.tuples_considered, 4);
}

TEST_F(GrounderTest, DeltaWithRepeatedVariable) {
  LoadFacts("p0(a, a). p0(a, b). p0(b, b). p0(c, c).");
  Rule rule = ParseRule("loop(X) :- p0(X, X).");
  auto compiled = CompileRule(db_.program(), rule, /*first_literal=*/0);
  ASSERT_TRUE(compiled.ok());
  Relation out = Run(*compiled, 0, RowRange{1, 3});
  EXPECT_EQ(out.size(), 1);
  EXPECT_TRUE(out.Contains({db_.pool().MakeSymbol("b")}));
  EXPECT_EQ(counters_.tuples_considered, 2);  // a scan checks every row
}

TEST_F(GrounderTest, AppendsEveryDerivationToTheBuffer) {
  LoadFacts("e(a, b). e(a, c). e(b, c).");
  Rule rule = ParseRule("p(X) :- e(X, Y).");
  auto compiled = CompileRule(db_.program(), rule);
  ASSERT_TRUE(compiled.ok());
  TermId a = db_.pool().MakeSymbol("a");
  TermId b = db_.pool().MakeSymbol("b");
  // The buffer is appended to, not cleared, and keeps duplicates: the
  // caller dedups when it drains.
  std::vector<TermId> emitted = {kNullTerm};
  EvalCounters counters;
  ASSERT_TRUE(EvaluateRule(&db_, *compiled, -1, {}, &emitted, &counters).ok());
  EXPECT_EQ(emitted, (std::vector<TermId>{kNullTerm, a, a, b}));
  EXPECT_EQ(counters.derivations, 3);
  EXPECT_EQ(counters.inserted, 0);  // counted by the fixpoint's drain
}

TEST_F(GrounderTest, DeltaMustBeRelationLiteral) {
  Rule rule = ParseRule("p(X) :- n(X), X > 2.");
  auto compiled = CompileRule(db_.program(), rule, /*first_literal=*/1);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GrounderTest, EmptyRelationYieldsNothing) {
  Rule rule = ParseRule("p(X, Y) :- never(X, Y).");
  auto compiled = CompileRule(db_.program(), rule);
  ASSERT_TRUE(compiled.ok());
  Relation out = Run(*compiled);
  EXPECT_TRUE(out.empty());
}

TEST_F(GrounderTest, GroundCompoundConstantsInRelations) {
  LoadFacts("has(tom, pair(a, 1)).");
  Rule rule = ParseRule("p(X) :- has(X, pair(a, 1)).");
  auto compiled = CompileRule(db_.program(), rule);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  Relation out = Run(*compiled);
  EXPECT_EQ(out.size(), 1);
}

// The magic rule of tc(root, Y) after the rewrite. Body literals:
// 0 = m_tc_bf(X), 1 = edge(X, Z), 2 = tc_bf(Z, Y).
constexpr std::string_view kMagicTcRule =
    "tc_bf(X, Y) :- m_tc_bf(X), edge(X, Z), tc_bf(Z, Y).";

// Estimates as the planner sees them before the fixpoint: the magic
// and answer relations are empty (ratio 0), edge is large and expands
// by 2 per bound endpoint.
CardinalityEstimator PreFixpointEstimator(const PredicateTable& preds) {
  const PredId edge = preds.Find("edge", 2).value();
  return [edge](PredId pred, const std::string& adornment) {
    if (pred != edge) return 0.0;
    return adornment == "ff" ? 158400.0 : 2.0;
  };
}

TEST_F(GrounderTest, DeltaVariantProbesEdgeBeforeUnboundMagicScan) {
  Rule rule = ParseRule(kMagicTcRule);
  auto compiled =
      CompileRule(db_.program(), rule, /*first_literal=*/2,
                  PreFixpointEstimator(db_.program().preds()));
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  // m_tc_bf(X) is estimated at 0 but binds nothing; edge(X, Z) has Z
  // bound by the delta, so it runs first and m_tc_bf becomes a probe.
  EXPECT_EQ(compiled->order, (std::vector<int>{2, 1, 0}));
}

TEST_F(GrounderTest, InitVariantScansSeedBeforeLargeRelation) {
  Rule rule = ParseRule(kMagicTcRule);
  auto compiled = CompileRule(db_.program(), rule, /*first_literal=*/-1,
                              PreFixpointEstimator(db_.program().preds()));
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  // Every literal starts unbound, so the estimates alone decide: the
  // small seed relation is scanned before the 158,400-row edge scan,
  // which then becomes a bound probe.
  EXPECT_EQ(compiled->order, (std::vector<int>{0, 1, 2}));
}

TEST_F(GrounderTest, NoEstimatorOrdersByBoundArguments) {
  Rule rule = ParseRule(kMagicTcRule);
  auto delta = CompileRule(db_.program(), rule, /*first_literal=*/2);
  ASSERT_TRUE(delta.ok()) << delta.status();
  EXPECT_EQ(delta->order, (std::vector<int>{2, 1, 0}));
  auto init = CompileRule(db_.program(), rule);
  ASSERT_TRUE(init.ok()) << init.status();
  EXPECT_EQ(init->order, (std::vector<int>{0, 1, 2}));
  // More bound arguments win; a constant counts as bound.
  Rule consts = ParseRule("q(X, Y) :- e(X, Y), f(a, Y), g(a, b, X).");
  auto compiled = CompileRule(db_.program(), consts);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_EQ(compiled->order, (std::vector<int>{2, 0, 1}));
}

}  // namespace
}  // namespace chainsplit
