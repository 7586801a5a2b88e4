#include "engine/seminaive.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "ast/parser.h"
#include "workload/graph_gen.h"

namespace chainsplit {
namespace {

/// Same arity and the same set of tuples, in any order.
bool SameTuples(const Relation& a, const Relation& b) {
  if (a.size() != b.size() || a.arity() != b.arity()) return false;
  for (int64_t i = 0; i < a.num_rows(); ++i) {
    if (!b.Contains(a.row(i))) return false;
  }
  return true;
}

class SemiNaiveTest : public ::testing::Test {
 protected:
  void Load(std::string_view text) {
    ASSERT_TRUE(ParseProgram(text, &db_.program()).ok());
    ASSERT_TRUE(db_.LoadProgramFacts().ok());
  }

  Status Run(const SemiNaiveOptions& options = {}) {
    return SemiNaiveEvaluate(&db_, db_.program().rules(), options, &stats_);
  }

  const Relation* Rel(std::string_view name, int arity) {
    auto pred = db_.program().preds().Find(name, arity);
    return pred.has_value() ? db_.GetRelation(*pred) : nullptr;
  }

  Database db_;
  SemiNaiveStats stats_;
};

TEST_F(SemiNaiveTest, NonRecursiveProjection) {
  Load(R"(
e(a, b). e(b, c).
p(Y) :- e(X, Y).
)");
  ASSERT_TRUE(Run().ok());
  const Relation* p = Rel("p", 1);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->size(), 2);
}

TEST_F(SemiNaiveTest, TransitiveClosureOnChain) {
  Load(R"(
e(n0, n1). e(n1, n2). e(n2, n3). e(n3, n4).
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
)");
  ASSERT_TRUE(Run().ok());
  const Relation* tc = Rel("tc", 2);
  ASSERT_NE(tc, nullptr);
  EXPECT_EQ(tc->size(), 4 + 3 + 2 + 1);
  EXPECT_GT(stats_.iterations, 2);
}

TEST_F(SemiNaiveTest, TerminatesOnCyclicGraph) {
  Load(R"(
e(a, b). e(b, c). e(c, a).
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
)");
  ASSERT_TRUE(Run().ok());
  EXPECT_EQ(Rel("tc", 2)->size(), 9);  // complete on the 3-cycle
}

TEST_F(SemiNaiveTest, SameGenerationFixpoint) {
  Load(R"(
parent(c1, p1). parent(c2, p1). parent(g1, c1). parent(g2, c2).
sibling(c1, c2). sibling(c2, c1).
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
)");
  ASSERT_TRUE(Run().ok());
  const Relation* sg = Rel("sg", 2);
  ASSERT_NE(sg, nullptr);
  TermId g1 = db_.pool().MakeSymbol("g1");
  TermId g2 = db_.pool().MakeSymbol("g2");
  EXPECT_TRUE(sg->Contains({g1, g2}));
  EXPECT_TRUE(sg->Contains({g2, g1}));
  EXPECT_EQ(sg->size(), 4);
}

TEST_F(SemiNaiveTest, MutualRecursion) {
  Load(R"(
e(a, b). e(b, c). e(c, d).
even(X, X1) :- e(X, X1).
odd(X, Y) :- e(X, Z), even(Z, Y).
even2(X, Y) :- e(X, Z), odd(Z, Y).
)");
  ASSERT_TRUE(Run().ok());
  EXPECT_EQ(Rel("odd", 2)->size(), 2);
  EXPECT_EQ(Rel("even2", 2)->size(), 1);
}

TEST_F(SemiNaiveTest, BuiltinArithmeticInRecursion) {
  // to(N): numbers counting down from 5 to 0.
  Load(R"(
to(5).
to(M) :- to(N), N > 0, M is N - 1.
)");
  ASSERT_TRUE(Run().ok());
  EXPECT_EQ(Rel("to", 1)->size(), 6);
}

TEST_F(SemiNaiveTest, RunawayRecursionHitsIterationCap) {
  Load(R"(
up(0).
up(M) :- up(N), M is N + 1.
)");
  SemiNaiveOptions options;
  options.max_iterations = 50;
  Status status = Run(options);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

TEST_F(SemiNaiveTest, TupleCapTriggers) {
  Load(R"(
e(a, b). e(b, a).
p(X, Y) :- e(X, Y).
p(X, Y) :- p(X, Z), p(Z, Y).
)");
  SemiNaiveOptions options;
  options.max_tuples = 1;
  Status status = Run(options);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

TEST_F(SemiNaiveTest, NotFinitelyEvaluableProgramRejected) {
  Load(R"(
len(L, N) :- cons(X, T, L), len(T, M), N is M + 1.
len(L, 0) :- L = [].
)");
  // cons with all-free arguments in the recursive rule: no schedule.
  Status status = Run();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFinitelyEvaluable);
}

// Property: semi-naive equals naive evaluation on random graphs, for
// rule shapes that stress the delta kernel.
struct EquivalenceCase {
  const char* name;
  const char* rules;
};

void PrintTo(const EquivalenceCase& c, std::ostream* os) { *os << c.name; }

const EquivalenceCase kEquivalenceCases[] = {
    {"linear", R"(
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
)"},
    // Each delta variant reads the head's full relation while it scans
    // the head's delta rows.
    {"nonlinear", R"(
tc(X, Y) :- e(X, Y).
tc(X, Y) :- tc(X, Z), tc(Z, Y).
)"},
    // Delta literals with a constant argument and a repeated variable.
    {"constant_and_repeated", R"(
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
from0(Y) :- tc(n0, Y).
loop(X) :- tc(X, X).
)"},
    // Two IDB literals in one body: both delta variants fire in a round.
    {"two_idb_literals", R"(
fwd(X, Y) :- e(X, Y).
fwd(X, Y) :- fwd(X, Z), e(Z, Y).
bwd(X, Y) :- e(Y, X).
bwd(X, Y) :- e(Z, X), bwd(Z, Y).
meet(X, Z) :- fwd(X, Y), bwd(Y, Z).
)"},
    // Pre-seeded IDB tuples are a delta of the first round.
    {"preseeded", R"(
tc(n0, extra). tc(extra, n1). tc(n2, n2).
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
)"},
};

class SemiNaiveEquivalence
    : public ::testing::TestWithParam<std::tuple<int, EquivalenceCase>> {
 protected:
  static void Evaluate(const char* rules, bool naive, Database* db,
                       SemiNaiveStats* stats) {
    GraphOptions g;
    g.num_nodes = 30;
    g.num_edges = 60;
    g.seed = static_cast<uint64_t>(std::get<0>(GetParam()));
    GenerateGraph(db, "e", g);
    ASSERT_TRUE(ParseProgram(rules, &db->program()).ok());
    ASSERT_TRUE(db->LoadProgramFacts().ok());
    SemiNaiveOptions options;
    options.naive = naive;
    ASSERT_TRUE(
        SemiNaiveEvaluate(db, db->program().rules(), options, stats).ok());
  }
};

TEST_P(SemiNaiveEquivalence, MatchesNaiveOnRandomGraphs) {
  const char* rules = std::get<1>(GetParam()).rules;
  Database fast;
  SemiNaiveStats fast_stats;
  ASSERT_NO_FATAL_FAILURE(Evaluate(rules, /*naive=*/false, &fast,
                                   &fast_stats));
  Database slow;
  SemiNaiveStats slow_stats;
  ASSERT_NO_FATAL_FAILURE(Evaluate(rules, /*naive=*/true, &slow,
                                   &slow_stats));

  EXPECT_GT(fast_stats.total_derived, 0);
  EXPECT_EQ(fast_stats.total_derived, slow_stats.total_derived);
  // Symbols intern identically in both pools (same creation order), so
  // tuple-level comparison is meaningful.
  for (const Rule& rule : fast.program().rules()) {
    const Relation* rf = fast.GetRelation(rule.head.pred);
    const Relation* rs = slow.GetRelation(rule.head.pred);
    ASSERT_NE(rf, nullptr);
    ASSERT_NE(rs, nullptr);
    EXPECT_TRUE(SameTuples(*rf, *rs))
        << fast.program().preds().Display(rule.head.pred);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SemiNaiveEquivalence,
    ::testing::Combine(::testing::Range(1, 9),
                       ::testing::ValuesIn(kEquivalenceCases)),
    [](const auto& info) {
      return std::string(std::get<1>(info.param).name) + "_" +
             std::to_string(std::get<0>(info.param));
    });

/// E8's tuple counts (bench_merged_chains): per-chain closure over two
/// unshared random DAGs of N nodes and 2N edges (seeds 1 and 2) against
/// the closure of their merged pair graph, both through the fixpoint.
TEST(SemiNaiveMergedChains, RepeatsE8Counts) {
  struct Expected {
    int nodes;
    int64_t per_chain;
    int64_t merged;
  };
  for (const Expected& want :
       {Expected{8, 41, 270}, Expected{16, 117, 1708}}) {
    Database db;
    for (int k = 1; k <= 2; ++k) {
      GraphOptions g;
      g.num_nodes = want.nodes;
      g.num_edges = 2 * want.nodes;
      g.acyclic = true;
      g.seed = static_cast<uint64_t>(k);
      g.node_prefix = k == 1 ? "a" : "b";
      GenerateGraph(&db, k == 1 ? "e1" : "e2", g);
    }
    ASSERT_TRUE(ParseProgram(R"(
tc1(X, Y) :- e1(X, Y).
tc1(X, Y) :- tc1(X, Z), e1(Z, Y).
tc2(X, Y) :- e2(X, Y).
tc2(X, Y) :- tc2(X, Z), e2(Z, Y).
tcm(X, Y) :- m(X, Y).
tcm(X, Y) :- tcm(X, Z), m(Z, Y).
)",
                             &db.program())
                    .ok());
    auto rel = [&](std::string_view name) {
      return db.GetOrCreateRelation(db.program().preds().Find(name, 2).value());
    };
    const Relation* e1 = rel("e1");
    const Relation* e2 = rel("e2");
    Relation* m = rel("m");
    for (int64_t i = 0; i < e1->num_rows(); ++i) {
      for (int64_t j = 0; j < e2->num_rows(); ++j) {
        TermId from_args[] = {e1->row(i)[0], e2->row(j)[0]};
        TermId to_args[] = {e1->row(i)[1], e2->row(j)[1]};
        m->Insert({db.pool().MakeCompound("pair", from_args),
                   db.pool().MakeCompound("pair", to_args)});
      }
    }
    SemiNaiveStats stats;
    ASSERT_TRUE(
        SemiNaiveEvaluate(&db, db.program().rules(), {}, &stats).ok());
    EXPECT_EQ(rel("tc1")->size() + rel("tc2")->size(), want.per_chain)
        << "N=" << want.nodes;
    EXPECT_EQ(rel("tcm")->size(), want.merged) << "N=" << want.nodes;
  }
}

}  // namespace
}  // namespace chainsplit
