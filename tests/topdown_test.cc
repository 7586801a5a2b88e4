#include "engine/topdown.h"

#include <gtest/gtest.h>
#include <pthread.h>

#include <functional>
#include <thread>

#include "ast/parser.h"
#include "common/strings.h"
#include "term/list_utils.h"
#include "workload/list_gen.h"

namespace chainsplit {
namespace {

class TopDownTest : public ::testing::Test {
 protected:
  void Load(std::string_view text) {
    ASSERT_TRUE(ParseProgram(text, &db_.program()).ok());
    ASSERT_TRUE(db_.LoadProgramFacts().ok());
  }

  /// Parses and solves a query, returning rows of its variables.
  std::vector<std::vector<TermId>> Ask(std::string_view query_text,
                                       TopDownOptions options = {}) {
    Program scratch(&db_.pool());
    size_t before = db_.program().queries().size();
    Status status = ParseProgram(query_text, &db_.program());
    EXPECT_TRUE(status.ok()) << status;
    const Query& query = db_.program().queries()[before];
    std::vector<TermId> vars;
    for (const Atom& goal : query.goals) {
      CollectAtomVariables(db_.pool(), goal, &vars);
    }
    TopDownEvaluator solver(&db_, options);
    auto answers = solver.Answers(query.goals, vars);
    EXPECT_TRUE(answers.ok()) << answers.status();
    last_stats_ = solver.stats();
    return answers.ok() ? *answers : std::vector<std::vector<TermId>>{};
  }

  Database db_;
  TopDownStats last_stats_;
};

TEST_F(TopDownTest, SolvesEdbFacts) {
  Load("e(a, b). e(a, c). e(b, d).");
  auto rows = Ask("?- e(a, Y).");
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(TopDownTest, GroundGoalMatchesItsFactRowOnce) {
  // A goal bound on every argument probes its relation on the full key:
  // one dedup-table lookup, one matching row, no index built.
  Load("e(a, b). e(b, a). e(a, c). e(b, b).");
  auto rows = Ask("?- e(a, b).");
  EXPECT_EQ(rows.size(), 1u);
  EXPECT_EQ(last_stats_.solutions, 1);
  EXPECT_TRUE(Ask("?- e(c, a).").empty());
  EXPECT_EQ(last_stats_.solutions, 0);
  // Bound by the first goal, e(Y, X) is ground when selected.
  rows = Ask("?- e(X, Y), e(Y, X).");
  EXPECT_EQ(rows.size(), 3u);  // (a, b), (b, a), (b, b)
  EXPECT_EQ(last_stats_.solutions, 3);
  const Relation* e =
      db_.GetRelation(*db_.program().preds().Find("e", 2));
  EXPECT_EQ(e->telemetry().posting_blocks, 0);
}

TEST_F(TopDownTest, SolvesConjunction) {
  Load("e(a, b). e(b, c). e(b, d).");
  auto rows = Ask("?- e(a, Y), e(Y, Z).");
  EXPECT_EQ(rows.size(), 2u);  // (b,c), (b,d)
}

TEST_F(TopDownTest, SolvesRecursiveRulesOnAcyclicData) {
  Load(R"(
e(a, b). e(b, c). e(c, d).
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
)");
  auto rows = Ask("?- tc(a, Y).");
  EXPECT_EQ(rows.size(), 3u);
}

TEST_F(TopDownTest, AppendForwards) {
  Load(AppendProgramSource());
  auto rows = Ask("?- append([1, 2], [3, 4], W).");
  ASSERT_EQ(rows.size(), 1u);
  auto ints = ListInts(db_.pool(), rows[0][0]);
  ASSERT_TRUE(ints.has_value());
  EXPECT_EQ(*ints, (std::vector<int64_t>{1, 2, 3, 4}));
}

TEST_F(TopDownTest, AppendBackwardsEnumeratesSplits) {
  Load(AppendProgramSource());
  auto rows = Ask("?- append(X, Y, [1, 2, 3]).");
  EXPECT_EQ(rows.size(), 4u);  // 4 ways to split a 3-element list
}

TEST_F(TopDownTest, IsortSortsPaperExample) {
  Load(IsortProgramSource());
  auto rows = Ask("?- isort([5, 7, 1], Ys).");
  ASSERT_EQ(rows.size(), 1u);
  auto ints = ListInts(db_.pool(), rows[0][0]);
  ASSERT_TRUE(ints.has_value());
  EXPECT_EQ(*ints, (std::vector<int64_t>{1, 5, 7}));
}

TEST_F(TopDownTest, QsortSortsPaperExample) {
  Load(QsortProgramSource());
  auto rows = Ask("?- qsort([4, 9, 5], Ys).");
  ASSERT_EQ(rows.size(), 1u);
  auto ints = ListInts(db_.pool(), rows[0][0]);
  ASSERT_TRUE(ints.has_value());
  EXPECT_EQ(*ints, (std::vector<int64_t>{4, 5, 9}));
}

TEST_F(TopDownTest, ArithmeticGoals) {
  Load("n(3). n(4).");
  auto rows = Ask("?- n(X), Y is X + 10, Y > 13.");
  EXPECT_EQ(rows.size(), 1u);  // X=4, Y=14
}

TEST_F(TopDownTest, DepthCapOnLeftRecursion) {
  Load(R"(
p(X, Y) :- p(X, Z), e(Z, Y).
p(X, Y) :- e(X, Y).
e(a, b).
)");
  TopDownOptions options;
  options.max_depth = 100;
  options.max_steps = 100000;
  Program scratch(&db_.pool());
  ASSERT_TRUE(ParseProgram("?- p(a, Y).", &db_.program()).ok());
  const Query& query = db_.program().queries().back();
  TopDownEvaluator solver(&db_, options);
  auto answers = solver.Answers(query.goals, {});
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(TopDownTest, DepthCapStopsARunawayRecursionBeforeTheStepCap) {
  Load("p(X) :- p(X). ?- p(a).");
  TopDownEvaluator solver(&db_);
  auto answers = solver.Answers(db_.program().queries().back().goals, {});
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(answers.status().message().find("depth"), std::string::npos)
      << answers.status();
  const TopDownOptions defaults;
  EXPECT_EQ(solver.stats().deepest, defaults.max_depth);
  EXPECT_LT(solver.stats().steps, defaults.max_steps);
}

TEST_F(TopDownTest, SolutionsArriveOnTheCallingThread) {
  Load("n(1). n(2). ?- n(X).");
  std::vector<std::thread::id> callers;
  TopDownEvaluator solver(&db_);
  ASSERT_TRUE(solver
                  .Solve(db_.program().queries().back().goals,
                         [&](const Substitution&) {
                           callers.push_back(std::this_thread::get_id());
                         })
                  .ok());
  EXPECT_EQ(callers, std::vector(2, std::this_thread::get_id()));
}

// Proofs close to max_depth need heap, not machine stack: both run on
// a thread whose whole stack is 256 KiB.
TEST_F(TopDownTest, ProofsNearTheDepthCapRunOnASmallStack) {
  Load(StrCat(AppendProgramSource(), IsortProgramSource()));
  const std::vector<int64_t> long_list = RandomInts(100000, 0, 999, 5);
  std::vector<int64_t> ints = RandomInts(512, 0, 1000000, 11 + 512);
  std::vector<std::vector<TermId>> appended, sorted;
  TopDownStats append_stats;
  std::function<void()> run = [&] {
    TermPool& pool = db_.pool();
    appended = Ask(StrCat("?- append(",
                          pool.ToString(MakeIntList(pool, long_list)),
                          ", [], W)."));
    append_stats = last_stats_;
    sorted = Ask(StrCat("?- isort(", pool.ToString(MakeIntList(pool, ints)),
                        ", Ys)."));
  };
  pthread_attr_t attr;
  pthread_attr_init(&attr);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, size_t{256} << 10), 0);
  pthread_t thread;
  auto trampoline = [](void* fn) -> void* {
    (*static_cast<std::function<void()>*>(fn))();
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&thread, &attr, trampoline, &run), 0);
  pthread_join(thread, nullptr);
  pthread_attr_destroy(&attr);
  ASSERT_EQ(appended.size(), 1u);
  EXPECT_EQ(ListInts(db_.pool(), appended[0][0]), long_list);
  EXPECT_EQ(append_stats.deepest, 100001);
  ASSERT_EQ(sorted.size(), 1u);
  std::sort(ints.begin(), ints.end());
  EXPECT_EQ(ListInts(db_.pool(), sorted[0][0]), ints);
  EXPECT_GT(last_stats_.deepest, 100000);
}

TEST_F(TopDownTest, MaxSolutionsStopsEarly) {
  Load("n(1). n(2). n(3). n(4). n(5).");
  TopDownOptions options;
  options.max_solutions = 2;
  auto rows = Ask("?- n(X).", options);
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(TopDownTest, FailingQueryHasNoAnswers) {
  Load("e(a, b).");
  auto rows = Ask("?- e(b, X).");
  EXPECT_TRUE(rows.empty());
}

TEST_F(TopDownTest, GroundQuerySucceedsWithEmptyRow) {
  Load(AppendProgramSource());
  auto rows = Ask("?- append([1], [2], [1, 2]).");
  EXPECT_EQ(rows.size(), 1u);
  auto none = Ask("?- append([1], [2], [2, 1]).");
  EXPECT_TRUE(none.empty());
}

// Property: isort output is sorted and a permutation, for random lists.
class IsortProperty : public ::testing::TestWithParam<int> {};

TEST_P(IsortProperty, SortsRandomLists) {
  Database db;
  ASSERT_TRUE(ParseProgram(IsortProgramSource(), &db.program()).ok());
  ASSERT_TRUE(db.LoadProgramFacts().ok());
  int n = GetParam();
  std::vector<int64_t> values = RandomInts(n, 0, 50, 1000 + n);
  TermId list = MakeIntList(db.pool(), values);

  PredId isort = db.program().preds().Find("isort", 2).value();
  TermId ys = db.pool().MakeVariable("Ys");
  Atom goal{isort, {list, ys}};
  TopDownEvaluator solver(&db);
  auto answers = solver.Answers({goal}, {ys});
  ASSERT_TRUE(answers.ok()) << answers.status();
  ASSERT_EQ(answers->size(), 1u);
  auto sorted = ListInts(db.pool(), (*answers)[0][0]);
  ASSERT_TRUE(sorted.has_value());
  std::vector<int64_t> expect = values;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(*sorted, expect);
}

INSTANTIATE_TEST_SUITE_P(Lengths, IsortProperty,
                         ::testing::Values(0, 1, 2, 3, 8, 16, 32, 64));

// Property: qsort agrees with std::sort. (Note the classic textbook
// qsort drops duplicates of the pivot? No: partition keeps =< on the
// left, so duplicates are preserved.)
class QsortProperty : public ::testing::TestWithParam<int> {};

TEST_P(QsortProperty, SortsRandomLists) {
  Database db;
  ASSERT_TRUE(ParseProgram(QsortProgramSource(), &db.program()).ok());
  ASSERT_TRUE(db.LoadProgramFacts().ok());
  int n = GetParam();
  std::vector<int64_t> values = RandomInts(n, 0, 30, 2000 + n);
  TermId list = MakeIntList(db.pool(), values);

  PredId qsort = db.program().preds().Find("qsort", 2).value();
  TermId ys = db.pool().MakeVariable("Ys");
  Atom goal{qsort, {list, ys}};
  TopDownEvaluator solver(&db);
  auto answers = solver.Answers({goal}, {ys});
  ASSERT_TRUE(answers.ok()) << answers.status();
  ASSERT_EQ(answers->size(), 1u);
  auto sorted = ListInts(db.pool(), (*answers)[0][0]);
  ASSERT_TRUE(sorted.has_value());
  std::vector<int64_t> expect = values;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(*sorted, expect);
}

INSTANTIATE_TEST_SUITE_P(Lengths, QsortProperty,
                         ::testing::Values(0, 1, 2, 3, 8, 16, 32));

}  // namespace
}  // namespace chainsplit
