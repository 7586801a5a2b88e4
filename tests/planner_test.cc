#include "core/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>

#include "ast/parser.h"
#include "common/strings.h"
#include "rel/csv.h"
#include "term/list_utils.h"
#include "workload/family_gen.h"
#include "workload/flight_gen.h"
#include "workload/graph_gen.h"
#include "workload/list_gen.h"

namespace chainsplit {
namespace {

TEST(PlannerTest, SgUsesMagicSets) {
  Database db;
  auto result = RunProgram(&db, StrCat(R"(
parent(c1, p1). parent(c2, p1).
parent(g1, c1). parent(g2, c2).
sibling(c1, c2). sibling(c2, c1).
)",
                                       SgProgramSource(), "?- sg(g1, Y)."));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->technique, Technique::kMagicSets);
  ASSERT_EQ(result->answers.size(), 1u);
  EXPECT_EQ(result->answers[0][0], db.pool().MakeSymbol("g2"));
  EXPECT_NE(result->plan.find("linear"), std::string::npos);
}

TEST(PlannerTest, ScsgWithWeakLinkageUsesChainSplitMagic) {
  Database db;
  FamilyOptions fam;
  fam.num_families = 2;
  fam.depth = 4;
  fam.fanout = 2;
  fam.num_countries = 1;  // all same country: maximally weak linkage
  FamilyData data = GenerateFamily(&db, fam);
  ASSERT_TRUE(ParseProgram(ScsgProgramSource(), &db.program()).ok());
  ASSERT_TRUE(ParseProgram(StrCat("?- scsg(", db.pool().name(data.query_person),
                                  ", Y)."),
                           &db.program())
                  .ok());
  ASSERT_TRUE(db.LoadProgramFacts().ok());
  auto result = EvaluateQuery(&db, db.program().queries()[0]);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->technique, Technique::kChainSplitMagic);
  EXPECT_FALSE(result->answers.empty());
}

TEST(PlannerTest, ScsgForcedTechniquesAgree) {
  auto run = [](std::optional<Technique> force,
                std::vector<Tuple>* answers) -> Technique {
    Database db;
    FamilyOptions fam;
    fam.num_families = 2;
    fam.depth = 4;
    fam.fanout = 2;
    fam.num_countries = 2;
    FamilyData data = GenerateFamily(&db, fam);
    EXPECT_TRUE(ParseProgram(ScsgProgramSource(), &db.program()).ok());
    EXPECT_TRUE(
        ParseProgram(StrCat("?- scsg(", db.pool().name(data.query_person),
                            ", Y)."),
                     &db.program())
            .ok());
    EXPECT_TRUE(db.LoadProgramFacts().ok());
    PlannerOptions options;
    options.force = force;
    auto result = EvaluateQuery(&db, db.program().queries()[0], options);
    EXPECT_TRUE(result.ok()) << result.status();
    if (!result.ok()) return Technique::kTopDown;
    // Normalize answers to strings (pools differ across runs).
    for (const Tuple& row : result->answers) {
      Tuple named;
      for (TermId t : row) {
        named.push_back(static_cast<TermId>(
            std::hash<std::string>{}(db.pool().ToString(t)) & 0x7fffffff));
      }
      answers->push_back(named);
    }
    return result->technique;
  };

  std::vector<Tuple> follow, split;
  EXPECT_EQ(run(Technique::kMagicSets, &follow), Technique::kMagicSets);
  run(Technique::kChainSplitMagic, &split);
  ASSERT_EQ(follow.size(), split.size());
  for (const Tuple& t : follow) {
    EXPECT_NE(std::find(split.begin(), split.end(), t), split.end());
  }
}

TEST(PlannerTest, AppendUsesBufferedChainSplit) {
  Database db;
  auto result = RunProgram(
      &db, StrCat(AppendProgramSource(), "?- append([1, 2], [3], W)."));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->technique, Technique::kBuffered);
  ASSERT_EQ(result->answers.size(), 1u);
  auto ints = ListInts(db.pool(), result->answers[0][0]);
  ASSERT_TRUE(ints.has_value());
  EXPECT_EQ(*ints, (std::vector<int64_t>{1, 2, 3}));
  EXPECT_NE(result->plan.find("buffered"), std::string::npos);
}

TEST(PlannerTest, IsortPaperTraceViaBufferedSplit) {
  Database db;
  auto result = RunProgram(
      &db, StrCat(IsortProgramSource(), "?- isort([5, 7, 1], Ys)."));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->technique, Technique::kBuffered);
  ASSERT_EQ(result->answers.size(), 1u);
  auto ints = ListInts(db.pool(), result->answers[0][0]);
  ASSERT_TRUE(ints.has_value());
  EXPECT_EQ(*ints, (std::vector<int64_t>{1, 5, 7}));
  EXPECT_NE(result->plan.find("nested-linear"), std::string::npos);
}

TEST(PlannerTest, QsortFallsBackToTopDown) {
  Database db;
  auto result = RunProgram(
      &db, StrCat(QsortProgramSource(), "?- qsort([4, 9, 5], Ys)."));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->technique, Technique::kTopDown);
  ASSERT_EQ(result->answers.size(), 1u);
  auto ints = ListInts(db.pool(), result->answers[0][0]);
  EXPECT_EQ(*ints, (std::vector<int64_t>{4, 5, 9}));
}

TEST(PlannerTest, TravelWithFareBoundUsesPartialEvaluation) {
  Database db;
  auto result = RunProgram(&db, StrCat(TravelProgramSource(), R"(
flight(1, montreal, toronto, 200).
flight(2, toronto, ottawa, 150).
flight(3, montreal, ottawa, 700).
?- travel(L, montreal, ottawa, F), F =< 600.
)"));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->technique, Technique::kPartial);
  // Exactly one itinerary under 600: [1,2] at 350. The pushed bound
  // prunes partial sums; the remaining goal F =< 600 post-filters the
  // direct 700 flight.
  ASSERT_EQ(result->answers.size(), 1u);
  auto flights = ListInts(db.pool(), result->answers[0][0]);
  ASSERT_TRUE(flights.has_value());
  EXPECT_EQ(*flights, (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(db.pool().int_value(result->answers[0][1]), 350);
}

TEST(PlannerTest, TravelWithoutConstraintOnAcyclicDataUsesBuffered) {
  Database db;
  auto result = RunProgram(&db, StrCat(TravelProgramSource(), R"(
flight(1, montreal, toronto, 200).
flight(2, toronto, ottawa, 150).
?- travel(L, montreal, ottawa, F).
)"));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->technique, Technique::kBuffered);
  EXPECT_EQ(result->answers.size(), 1u);
}

TEST(PlannerTest, PostGoalsFilterAnswers) {
  Database db;
  auto result = RunProgram(&db, StrCat(R"(
parent(c1, p1). parent(c2, p1).
parent(g1, c1). parent(g2, c2).
sibling(c1, c2). sibling(c2, c1).
nice(g2).
)",
                                       SgProgramSource(),
                                       "?- sg(g1, Y), nice(Y)."));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 1u);
}

TEST(PlannerTest, PostGoalsCanEliminateEverything) {
  Database db;
  auto result = RunProgram(&db, StrCat(R"(
parent(g1, c1). sibling(c1, c1).
)",
                                       SgProgramSource(),
                                       "?- sg(g1, Y), nope(Y)."));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->answers.empty());
}

TEST(PlannerTest, PureEdbQueryGoesTopDown) {
  Database db;
  auto result = RunProgram(&db, "e(a, b). e(a, c).\n?- e(a, X).");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->technique, Technique::kTopDown);
  EXPECT_EQ(result->answers.size(), 2u);
}

TEST(PlannerTest, ForcedTopDown) {
  Database db;
  PlannerOptions options;
  options.force = Technique::kTopDown;
  ASSERT_TRUE(ParseProgram(StrCat(AppendProgramSource(),
                                  "?- append([1], [2], W)."),
                           &db.program())
                  .ok());
  ASSERT_TRUE(db.LoadProgramFacts().ok());
  auto result = EvaluateQuery(&db, db.program().queries()[0], options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->technique, Technique::kTopDown);
  EXPECT_EQ(result->answers.size(), 1u);
}

TEST(PlannerTest, ForcedPartialWithoutConstraintErrors) {
  Database db;
  PlannerOptions options;
  options.force = Technique::kPartial;
  ASSERT_TRUE(ParseProgram(StrCat(AppendProgramSource(),
                                  "?- append([1], [2], W)."),
                           &db.program())
                  .ok());
  ASSERT_TRUE(db.LoadProgramFacts().ok());
  auto result = EvaluateQuery(&db, db.program().queries()[0], options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PlannerTest, EmptyQueryRejected) {
  Database db;
  Query query;
  auto result = EvaluateQuery(&db, query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlannerTest, ProgramWithoutQueryRejected) {
  Database db;
  auto result = RunProgram(&db, "e(a, b).");
  ASSERT_FALSE(result.ok());
}

TEST(PlannerTest, QueryVariablesInOrder) {
  Database db;
  auto result = RunProgram(&db, StrCat(TravelProgramSource(), R"(
flight(1, montreal, ottawa, 100).
?- travel(L, montreal, ottawa, F).
)"));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->vars.size(), 2u);
  EXPECT_EQ(db.pool().name(result->vars[0]), "L");
  EXPECT_EQ(db.pool().name(result->vars[1]), "F");
}

// Property: the planner's buffered isort equals std::sort for random
// lists of growing length.
class PlannerIsortProperty : public ::testing::TestWithParam<int> {};

TEST_P(PlannerIsortProperty, SortsCorrectly) {
  int n = GetParam();
  Database db;
  ASSERT_TRUE(ParseProgram(IsortProgramSource(), &db.program()).ok());
  ASSERT_TRUE(db.LoadProgramFacts().ok());
  std::vector<int64_t> values = RandomInts(n, 0, 100, 77 + n);
  TermId list = MakeIntList(db.pool(), values);
  Query query;
  PredId isort = db.program().preds().Find("isort", 2).value();
  query.goals.push_back(Atom{isort, {list, db.pool().MakeVariable("Ys")}});
  auto result = EvaluateQuery(&db, query);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->technique, Technique::kBuffered);
  ASSERT_EQ(result->answers.size(), 1u);
  auto sorted = ListInts(db.pool(), result->answers[0][0]);
  ASSERT_TRUE(sorted.has_value());
  std::vector<int64_t> expect = values;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(*sorted, expect);
}

INSTANTIATE_TEST_SUITE_P(Lengths, PlannerIsortProperty,
                         ::testing::Values(0, 1, 2, 5, 10, 25, 50, 100));

}  // namespace
}  // namespace chainsplit

namespace chainsplit {
namespace {

TEST(PlannerTest, IdbFactsSurviveMagicEvaluation) {
  // sg has both a stored fact and rules: the fact must appear in the
  // magic-evaluated answers.
  Database db;
  auto result = RunProgram(&db, StrCat(R"(
sg(g1, direct).
parent(c1, p1). parent(c2, p1).
parent(g1, c1). parent(g2, c2).
sibling(c1, c2). sibling(c2, c1).
)",
                                       SgProgramSource(), "?- sg(g1, Y)."));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 2u);  // direct (fact) + g2 (derived)
  bool found_direct = false;
  for (const Tuple& row : result->answers) {
    found_direct =
        found_direct || row[0] == db.pool().MakeSymbol("direct");
  }
  EXPECT_TRUE(found_direct);
}

}  // namespace
}  // namespace chainsplit

namespace chainsplit {
namespace {

TEST(MaterializeAllTest, MaterializesFunctionFreeProgram) {
  Database db;
  ASSERT_TRUE(ParseProgram(R"(
e(a, b). e(b, c). e(c, d).
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
reach2(X) :- tc(a, X).
)",
                           &db.program())
                  .ok());
  ASSERT_TRUE(db.LoadProgramFacts().ok());
  ASSERT_TRUE(MaterializeAll(&db).ok());
  const Relation* tc =
      db.GetRelation(db.program().preds().Find("tc", 2).value());
  ASSERT_NE(tc, nullptr);
  EXPECT_EQ(tc->size(), 6);
  const Relation* reach2 =
      db.GetRelation(db.program().preds().Find("reach2", 1).value());
  ASSERT_NE(reach2, nullptr);
  EXPECT_EQ(reach2->size(), 3);
}

TEST(MaterializeAllTest, RejectsFunctionalPrograms) {
  Database db;
  ASSERT_TRUE(
      ParseProgram(IsortProgramSource(), &db.program()).ok());
  ASSERT_TRUE(db.LoadProgramFacts().ok());
  Status status = MaterializeAll(&db);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFinitelyEvaluable);
}

}  // namespace
}  // namespace chainsplit

namespace chainsplit {
namespace {

// Facts of three IDB predicates (sg, sym, isort) interleaved with many
// EDB facts: the planner finds them through the per-predicate fact
// index, and answers and their order must not depend on how it finds
// them.
std::string InterleavedFactsProgram() {
  std::string text = StrCat(SgProgramSource(), R"(
sym(X, Y) :- base(X, Y).
sym(X, Y) :- link(X), sym(Y, X).
)",
                            IsortProgramSource());
  for (int i = 1; i < 200; ++i) {
    text += StrCat("parent(n", i, ", n", i / 3, "). ");
    if (i % 3 == 1) text += StrCat("sibling(n", i, ", n", i + 1, "). ");
    if (i % 25 == 3) text += StrCat("sg(n", i, ", n", 199 - i, "). ");
    text += StrCat("base(b", i, ", b", (i * 7) % 200, "). ");
    if (i % 2 == 0) text += StrCat("link(b", i, "). ");
    if (i % 20 == 4) text += StrCat("sym(b", (i * 3) % 200, ", b", i, "). ");
    if (i == 100) text += "isort([9, 8], [8, 9]). ";
    if (i == 150) text += "isort([3], [3]). ";
    text += "\n";
  }
  return text;
}

// One row per answer, each row's bindings comma-separated; "error" when
// the technique does not apply.
std::string RenderAnswers(std::string_view query,
                          std::optional<Technique> force) {
  Database db;
  EXPECT_TRUE(
      ParseProgram(StrCat(InterleavedFactsProgram(), query), &db.program())
          .ok());
  EXPECT_TRUE(db.LoadProgramFacts().ok());
  PlannerOptions options;
  options.force = force;
  auto result = EvaluateQuery(&db, db.program().queries()[0], options);
  if (!result.ok()) return "error";
  if (force.has_value()) {
    // Forced chain-split magic reports plain magic sets when its cost
    // gate cuts no literal.
    bool gate_idle = *force == Technique::kChainSplitMagic &&
                     result->technique == Technique::kMagicSets;
    EXPECT_TRUE(result->technique == *force || gate_idle)
        << TechniqueToString(result->technique);
  }
  std::string out;
  for (const Tuple& row : result->answers) {
    if (!out.empty()) out += " ";
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ",";
      out += db.pool().ToString(row[i]);
    }
  }
  return out;
}

struct InterleavedCase {
  const char* query;
  std::optional<Technique> force;
  const char* expected;
};

TEST(PlannerTest, InterleavedIdbFactsGiveIdenticalAnswersUnderEveryTechnique) {
  // Expected rows and their order were recorded from the planner that
  // walked the whole fact list. Top-down on sym errors: SLD does not
  // terminate on its cyclic recursion and stops at the depth cap.
  const InterleavedCase cases[] = {
      {"?- sg(n40, Y).", std::nullopt,
       "n41 n42 n43 n44 n45 n46 n47 n48 n49 n50 n51 n52 n53 n54 n55 n56 "
       "n57 n58 n59 n60 n61 n62 n63 n64 n65 n66 n67 n68 n69 n70 n71 n72 "
       "n73 n74 n75 n76 n77 n78 n79 n80"},
      {"?- sg(n40, Y).", Technique::kMagicSets,
       "n41 n42 n43 n44 n45 n46 n47 n48 n49 n50 n51 n52 n53 n54 n55 n56 "
       "n57 n58 n59 n60 n61 n62 n63 n64 n65 n66 n67 n68 n69 n70 n71 n72 "
       "n73 n74 n75 n76 n77 n78 n79 n80"},
      {"?- sg(n40, Y).", Technique::kChainSplitMagic,
       "n41 n42 n43 n44 n45 n46 n47 n48 n49 n50 n51 n52 n53 n54 n55 n56 "
       "n57 n58 n59 n60 n61 n62 n63 n64 n65 n66 n67 n68 n69 n70 n71 n72 "
       "n73 n74 n75 n76 n77 n78 n79 n80"},
      {"?- sg(n40, Y).", Technique::kBuffered,
       "n80 n79 n77 n76 n75 n74 n73 n71 n51 n72 n47 n70 n46 n56 n49 n62 "
       "n78 n53 n65 n52 n66 n48 n43 n44 n67 n68 n42 n50 n60 n41 n54 n55 "
       "n57 n58 n59 n61 n63 n64 n45 n69"},
      {"?- sg(n40, Y).", Technique::kPartial, "error"},
      {"?- sg(n40, Y).", Technique::kTopDown,
       "n41 n42 n43 n44 n45 n46 n47 n48 n49 n50 n51 n52 n53 n54 n55 n56 "
       "n57 n58 n59 n60 n61 n62 n63 n64 n65 n66 n67 n68 n69 n70 n71 n72 "
       "n73 n74 n75 n76 n77 n78 n79 n80"},
      {"?- sg(n28, Y).", std::nullopt,
       "n29 n171 n54 n55 n56 n57 n58 n59 n60 n61 n62 n63 n64 n65 n66 n67 "
       "n68 n69 n70 n71 n72 n73 n74 n75 n76 n77 n78 n79 n80"},
      {"?- sg(n28, Y).", Technique::kMagicSets,
       "n29 n171 n54 n55 n56 n57 n58 n59 n60 n61 n62 n63 n64 n65 n66 n67 "
       "n68 n69 n70 n71 n72 n73 n74 n75 n76 n77 n78 n79 n80"},
      {"?- sg(n28, Y).", Technique::kChainSplitMagic,
       "n29 n171 n54 n55 n56 n57 n58 n59 n60 n61 n62 n63 n64 n65 n66 n67 "
       "n68 n69 n70 n71 n72 n73 n74 n75 n76 n77 n78 n79 n80"},
      {"?- sg(n28, Y).", Technique::kBuffered,
       "n79 n77 n75 n74 n73 n70 n69 n68 n80 n67 n78 n66 n65 n76 n171 n58 "
       "n54 n55 n60 n71 n56 n72 n57 n59 n61 n62 n63 n29 n64"},
      {"?- sg(n28, Y).", Technique::kPartial, "error"},
      {"?- sg(n28, Y).", Technique::kTopDown,
       "n171 n29 n54 n55 n56 n57 n58 n59 n60 n61 n62 n63 n64 n65 n66 n67 "
       "n68 n69 n70 n71 n72 n73 n74 n75 n76 n77 n78 n79 n80"},
      // A rest goal runs through the prover once per main answer, in
      // the main answers' order.
      {"?- sg(n28, Y), sibling(Y, Z).", std::nullopt,
       "n55,n56 n58,n59 n61,n62 n64,n65 n67,n68 n70,n71 n73,n74 n76,n77 "
       "n79,n80"},
      {"?- sg(n28, Y), sibling(Y, Z).", Technique::kTopDown,
       "n55,n56 n58,n59 n61,n62 n64,n65 n67,n68 n70,n71 n73,n74 n76,n77 "
       "n79,n80"},
      {"?- sym(b12, Y).", std::nullopt, "b84 b4 b116"},
      {"?- sym(b12, Y).", Technique::kMagicSets, "b84 b116 b4"},
      {"?- sym(b12, Y).", Technique::kChainSplitMagic, "b84 b4 b116"},
      {"?- sym(b12, Y).", Technique::kBuffered, "error"},
      {"?- sym(b12, Y).", Technique::kPartial, "error"},
      {"?- sym(b12, Y).", Technique::kTopDown, "error"},
      {"?- sym(b4, Y).", std::nullopt, "b28 b172 b12"},
      {"?- sym(b4, Y).", Technique::kMagicSets, "b28 b172 b12"},
      {"?- sym(b4, Y).", Technique::kChainSplitMagic, "b28 b172 b12"},
      {"?- sym(b4, Y).", Technique::kBuffered, "error"},
      {"?- sym(b4, Y).", Technique::kPartial, "error"},
      {"?- sym(b4, Y).", Technique::kTopDown, "error"},
      {"?- isort([2, 9, 8], Ys).", std::nullopt, "[2, 8, 9]"},
      {"?- isort([2, 9, 8], Ys).", Technique::kMagicSets, "[2, 8, 9]"},
      {"?- isort([2, 9, 8], Ys).", Technique::kChainSplitMagic, "[2, 8, 9]"},
      {"?- isort([2, 9, 8], Ys).", Technique::kBuffered, "[2, 8, 9]"},
      {"?- isort([2, 9, 8], Ys).", Technique::kPartial, "error"},
      {"?- isort([2, 9, 8], Ys).", Technique::kTopDown, "[2, 8, 9]"},
      {"?- isort([5, 7, 1], Ys).", std::nullopt, "[1, 5, 7]"},
      {"?- isort([5, 7, 1], Ys).", Technique::kMagicSets, "[1, 5, 7]"},
      {"?- isort([5, 7, 1], Ys).", Technique::kChainSplitMagic, "[1, 5, 7]"},
      {"?- isort([5, 7, 1], Ys).", Technique::kBuffered, "[1, 5, 7]"},
      {"?- isort([5, 7, 1], Ys).", Technique::kPartial, "error"},
      {"?- isort([5, 7, 1], Ys).", Technique::kTopDown, "[1, 5, 7]"},
  };
  for (const InterleavedCase& c : cases) {
    EXPECT_EQ(RenderAnswers(c.query, c.force), c.expected)
        << c.query << " forced "
        << (c.force.has_value() ? TechniqueToString(*c.force) : "none");
  }
  Database db;
  auto sym = RunProgram(
      &db, StrCat(InterleavedFactsProgram(), "?- sym(b12, Y)."));
  ASSERT_TRUE(sym.ok()) << sym.status();
  EXPECT_NE(sym->plan.find("bounded recursion"), std::string::npos)
      << sym->plan;
}

TEST(PlannerTest, ForcedTopDownOnCyclicRecursionStopsAtTheDepthCap) {
  Database db;
  ASSERT_TRUE(ParseProgram(StrCat(InterleavedFactsProgram(), "?- sym(b12, Y)."),
                           &db.program())
                  .ok());
  ASSERT_TRUE(db.LoadProgramFacts().ok());
  PlannerOptions options;
  options.force = Technique::kTopDown;
  const auto start = std::chrono::steady_clock::now();
  auto result = EvaluateQuery(&db, db.program().queries()[0], options);
  [[maybe_unused]] const auto elapsed =
      std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("depth"), std::string::npos)
      << result.status();
#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__)
  EXPECT_LT(elapsed, std::chrono::seconds(2));  // an optimized build
#endif
}

// Rows the planner reads from an IDB predicate's relation, such as a
// CSV load, are answers under every technique, as they are in SLD.
TEST(PlannerTest, CsvRowsOfAnIdbPredicateAnswerUnderEveryTechnique) {
  const std::optional<Technique> forces[] = {
      std::nullopt,        Technique::kMagicSets, Technique::kChainSplitMagic,
      Technique::kBuffered, Technique::kTopDown};
  for (const std::optional<Technique>& force : forces) {
    SCOPED_TRACE(force.has_value() ? TechniqueToString(*force) : "planner");
    Database db;
    ASSERT_TRUE(ParseProgram(R"(
e(c, d).
p(X, Y) :- e(X, Y).
p(X, Y) :- e(X, Z), p(Z, Y).
?- p(a, Y).
?- p(X, Y).
)",
                             &db.program())
                    .ok());
    ASSERT_TRUE(db.LoadProgramFacts().ok());
    const PredId p = db.program().preds().Find("p", 2).value();
    ASSERT_TRUE(LoadFactsFromString(&db, p, "a,b\n").ok());
    PlannerOptions options;
    options.force = force;
    const Tuple ab = {db.pool().MakeSymbol("a"), db.pool().MakeSymbol("b")};
    auto bound = EvaluateQuery(&db, db.program().queries()[0], options);
    ASSERT_TRUE(bound.ok()) << bound.status();
    EXPECT_EQ(bound->answers, std::vector<Tuple>{{ab[1]}});
    if (force == Technique::kBuffered) continue;  // needs a bound argument
    auto all = EvaluateQuery(&db, db.program().queries()[1], options);
    ASSERT_TRUE(all.ok()) << all.status();
    EXPECT_EQ(all->answers.size(), 2u);
    EXPECT_EQ(std::count(all->answers.begin(), all->answers.end(), ab), 1);
  }
}

TEST(PlannerTest, ChainPlanListsEachExitFactOnce) {
  Database db;
  auto result = RunProgram(
      &db, StrCat(InterleavedFactsProgram(), "?- isort([2, 9, 8], Ys)."));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->technique, Technique::kBuffered);
  for (const char* exit :
       {"exit: isort([], []).", "exit: isort([9, 8], [8, 9]).",
        "exit: isort([3], [3])."}) {
    size_t first = result->plan.find(exit);
    ASSERT_NE(first, std::string::npos) << exit << "\n" << result->plan;
    EXPECT_EQ(result->plan.find(exit, first + 1), std::string::npos)
        << exit << "\n" << result->plan;
  }
}

struct FixpointRun {
  std::vector<std::string> answers;  // sorted
  int64_t derived = 0;
  int64_t iterations = 0;
  int64_t considered = 0;
};

// Loads a fresh database with `load`, which returns the query, and
// evaluates it under one join order.
FixpointRun RunFixpoint(const std::function<Query(Database*)>& load,
                        bool use_stats) {
  Database db;
  Query query = load(&db);
  PlannerOptions options;
  options.use_stats_ordering = use_stats;
  auto result = EvaluateQuery(&db, query, options);
  EXPECT_TRUE(result.ok()) << result.status();
  FixpointRun run;
  if (!result.ok()) return run;
  for (const Tuple& row : result->answers) {
    std::string rendered;
    for (TermId t : row) rendered += db.pool().ToString(t) + " ";
    run.answers.push_back(rendered);
  }
  std::sort(run.answers.begin(), run.answers.end());
  run.derived = result->seminaive_stats.total_derived;
  run.iterations = result->seminaive_stats.iterations;
  run.considered = result->seminaive_stats.counters.tuples_considered;
  return run;
}

std::function<Query(Database*)> FamilyLoader(const char* program,
                                             const char* query_pred) {
  return [program, query_pred](Database* db) {
    FamilyOptions fam;
    fam.num_families = 2;
    fam.depth = 4;
    fam.fanout = 2;
    fam.num_countries = 2;
    FamilyData data = GenerateFamily(db, fam);
    EXPECT_TRUE(ParseProgram(program, &db->program()).ok());
    EXPECT_TRUE(db->LoadProgramFacts().ok());
    PredId pred = db->program().preds().Find(query_pred, 2).value();
    Query query;
    query.goals.push_back(
        Atom{pred, {data.query_person, db->pool().MakeVariable("Y")}});
    return query;
  };
}

// The fixpoint gives the same answers under both join orders, and the
// join order changes only the work per derivation, never what is
// derived or in how many rounds.
TEST(PlannerTest, FixpointPathsAgreeUnderBothJoinOrders) {
  struct Case {
    const char* name;
    std::function<Query(Database*)> load;
  };
  const Case cases[] = {
      // tc over a layered DAG, the deep_closure shape: 6 layers of 4.
      {"tc", [](Database* db) {
         GraphData dag = GenerateLayeredDag(db, "edge", 6, 4, "n");
         EXPECT_TRUE(ParseProgram("tc(X, Y) :- edge(X, Y).\n"
                                  "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n",
                                  &db->program())
                         .ok());
         EXPECT_TRUE(db->LoadProgramFacts().ok());
         PredId tc = db->program().preds().Find("tc", 2).value();
         Query query;
         query.goals.push_back(
             Atom{tc, {dag.nodes[0], db->pool().MakeVariable("Y")}});
         return query;
       }},
      {"sg", FamilyLoader(SgProgramSource(), "sg")},
      {"scsg", FamilyLoader(ScsgProgramSource(), "scsg")},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const FixpointRun bound_args = RunFixpoint(c.load, false);
    const FixpointRun stats = RunFixpoint(c.load, true);
    EXPECT_FALSE(bound_args.answers.empty());
    EXPECT_EQ(stats.answers, bound_args.answers);
    EXPECT_EQ(stats.derived, bound_args.derived);
    EXPECT_EQ(stats.iterations, bound_args.iterations);
    if (std::string_view(c.name) == "tc") {
      EXPECT_EQ(bound_args.answers.size(), 24u);
      // The tc stratum is compiled while its answer relation is still
      // empty, so statistics ordering reads ~4% more than the
      // bound-argument heuristic here (docs/perf_notes.md). The guard
      // is against the estimate making the join scan the magic
      // relation per delta tuple, which cost 15-54x.
      EXPECT_LE(stats.considered * 10, bound_args.considered * 11);
    }
  }
}

}  // namespace
}  // namespace chainsplit
