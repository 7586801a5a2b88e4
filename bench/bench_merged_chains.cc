// E8 — §1.1: merging unshared chains is "terribly inefficient".
//
// Paper claim: evaluating a multi-chain recursion by merging its chain
// generating paths into one (and running a transitive-closure
// algorithm on the merged relation) iterates on the cross-product of
// the per-chain relations. We measure, on two independent edge
// relations and through the system's one semi-naive fixpoint:
// (a) per-chain TC, tc1 over e1 and tc2 over e2 (the chain-split-style
//     evaluation), vs
// (b) TC over the merged pair-graph edge relation
//     m = {(pair(a,c), pair(b,d)) | e1(a,b), e2(c,d)}.
// Both plans are Datalog rules evaluated by SemiNaiveEvaluate on a
// fresh DatabaseOverlay each iteration.

#include <benchmark/benchmark.h>

#include "ast/parser.h"
#include "engine/seminaive.h"
#include "workload/graph_gen.h"

namespace chainsplit {
namespace {

constexpr char kRules[] = R"(
tc1(X, Y) :- e1(X, Y).
tc1(X, Y) :- tc1(X, Z), e1(Z, Y).
tc2(X, Y) :- e2(X, Y).
tc2(X, Y) :- tc2(X, Z), e2(Z, Y).
tcm(X, Y) :- m(X, Y).
tcm(X, Y) :- tcm(X, Z), m(Z, Y).
)";

GraphOptions Opts(int nodes, uint64_t seed, std::string_view prefix) {
  GraphOptions g;
  g.num_nodes = nodes;
  g.num_edges = nodes * 2;
  g.acyclic = true;
  g.seed = seed;
  g.node_prefix = prefix;
  return g;
}

/// Two unshared random DAGs of `nodes` nodes each (e1, e2) and the
/// closure rules over them and over the merged relation m.
struct MergedChains {
  explicit MergedChains(int nodes) {
    GenerateGraph(&db, "e1", Opts(nodes, 1, "a"));
    GenerateGraph(&db, "e2", Opts(nodes, 2, "b"));
    CS_CHECK(ParseProgram(kRules, &db.program()).ok());
    const PredId tcm = Pred("tcm");
    for (const Rule& rule : db.program().rules()) {
      (rule.head.pred == tcm ? merged_rules : chain_rules).push_back(rule);
    }
  }

  PredId Pred(std::string_view name) const {
    return db.program().preds().Find(name, 2).value();
  }

  /// Size of `name`'s relation in `overlay` (0 when none was created).
  int64_t Size(const DatabaseOverlay& overlay, std::string_view name) const {
    const Relation* rel = overlay.GetRelation(Pred(name));
    return rel == nullptr ? 0 : rel->size();
  }

  Database db;
  std::vector<Rule> chain_rules;   // tc1 and tc2
  std::vector<Rule> merged_rules;  // tcm
};

void PerChainTc(benchmark::State& state) {
  MergedChains chains(static_cast<int>(state.range(0)));
  double tuples = 0;
  for (auto _ : state) {
    DatabaseOverlay overlay(&chains.db);
    SemiNaiveStats stats;
    CS_CHECK(
        SemiNaiveEvaluate(&overlay, chains.chain_rules, {}, &stats).ok());
    tuples = static_cast<double>(chains.Size(overlay, "tc1") +
                                 chains.Size(overlay, "tc2"));
    benchmark::DoNotOptimize(stats.total_derived);
  }
  state.counters["tc_tuples"] = tuples;
}

void MergedChainTc(benchmark::State& state) {
  MergedChains chains(static_cast<int>(state.range(0)));
  const Relation* e1 = chains.db.GetRelation(chains.Pred("e1"));
  const Relation* e2 = chains.db.GetRelation(chains.Pred("e2"));
  TermPool& pool = chains.db.pool();
  double tuples = 0;
  double merged_edges = 0;
  for (auto _ : state) {
    DatabaseOverlay overlay(&chains.db);
    // Merge: pair-graph edges = cross product of the two edge sets,
    // with pair nodes encoded as interned pair terms.
    Relation* merged = overlay.GetOrCreateRelation(chains.Pred("m"));
    for (int64_t i = 0; i < e1->num_rows(); ++i) {
      for (int64_t j = 0; j < e2->num_rows(); ++j) {
        TermId from_args[] = {e1->row(i)[0], e2->row(j)[0]};
        TermId to_args[] = {e1->row(i)[1], e2->row(j)[1]};
        merged->Insert({pool.MakeCompound("pair", from_args),
                        pool.MakeCompound("pair", to_args)});
      }
    }
    merged_edges = static_cast<double>(merged->size());
    SemiNaiveStats stats;
    CS_CHECK(
        SemiNaiveEvaluate(&overlay, chains.merged_rules, {}, &stats).ok());
    tuples = static_cast<double>(chains.Size(overlay, "tcm"));
    benchmark::DoNotOptimize(stats.total_derived);
  }
  state.counters["tc_tuples"] = tuples;
  state.counters["merged_edges"] = merged_edges;
}

BENCHMARK(PerChainTc)
    ->Unit(benchmark::kMillisecond)
    ->ArgsProduct({{8, 16, 32, 64}});
BENCHMARK(MergedChainTc)
    ->Unit(benchmark::kMillisecond)
    ->ArgsProduct({{8, 16, 32, 64}})
    ->Iterations(3);

}  // namespace
}  // namespace chainsplit

int main(int argc, char** argv) {
  std::printf(
      "E8 (§1.1): per-chain TC vs merged cross-product-chain TC on two "
      "unshared random DAGs of N nodes each, both as Datalog rules "
      "through the semi-naive fixpoint.\nExpected shape: per-chain "
      "work grows ~N^2 in the worst case; the merged chain's edge set "
      "alone is |e1| x |e2| ~ 4N^2 and its closure tuples grow ~N^4 — "
      "the 'terribly inefficient' plan the paper rules out.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
