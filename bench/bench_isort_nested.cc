// E5 — §4.1 / Example 4.1: the isort nested linear recursion.
//
// Paper claim: isort is evaluated by chain-split on the outer chain
// (buffering the list elements) with the inner insert recursion as the
// delayed portion; insert itself is chain-split (insert^bbf delays the
// output cons). Cost grows O(N^2) with list length — N buffered
// levels, each delayed step running an O(N) insert. We compare the
// buffered planner plan against plain SLD and against the classic
// counting method (which re-derives instead of buffering call states).

#include <benchmark/benchmark.h>

#include "ast/parser.h"
#include "common/strings.h"
#include "core/counting.h"
#include "core/planner.h"
#include "core/rectify.h"
#include "term/list_utils.h"
#include "workload/list_gen.h"

namespace chainsplit {
namespace {

void RunIsort(benchmark::State& state, Technique technique) {
  const int64_t n = state.range(0);
  Database db;
  Status status = ParseProgram(IsortProgramSource(), &db.program());
  CS_CHECK(status.ok()) << status;
  status = db.LoadProgramFacts();
  CS_CHECK(status.ok()) << status;
  TermId list = RandomIntList(db.pool(), n, 0, 9999, 7 + n);
  PredId isort = db.program().preds().Find("isort", 2).value();

  double buffered = 0;
  for (auto _ : state) {
    Query query;
    query.goals.push_back(Atom{isort, {list, db.pool().MakeVariable("Ys")}});
    PlannerOptions options;
    options.force = technique;
    auto result = EvaluateQuery(&db, query, options);
    CS_CHECK(result.ok()) << result.status();
    CS_CHECK(result->answers.size() == 1) << "isort must be deterministic";
    buffered = static_cast<double>(result->buffered_stats.buffered_values);
  }
  state.counters["buffered"] = buffered;
  state.SetComplexityN(n);
}

void BufferedSplit(benchmark::State& state) {
  RunIsort(state, Technique::kBuffered);
}
void TopDownSld(benchmark::State& state) {
  RunIsort(state, Technique::kTopDown);
}

void CountingMethod(benchmark::State& state) {
  const int64_t n = state.range(0);
  Database db;
  Status status = ParseProgram(IsortProgramSource(), &db.program());
  CS_CHECK(status.ok()) << status;
  status = db.LoadProgramFacts();
  CS_CHECK(status.ok()) << status;
  std::vector<Rule> rectified = RectifyRules(&db.program());
  AppendIdbFacts(db, &rectified);
  auto chain = CompileChain(db.program(), rectified,
                            db.program().preds().Find("isort", 2).value());
  CS_CHECK(chain.ok()) << chain.status();
  TermId list = RandomIntList(db.pool(), n, 0, 9999, 7 + n);
  Atom query{chain->pred, {list, db.pool().MakeVariable("Ys")}};
  std::vector<TermId> bound;
  db.pool().CollectVariables(chain->head().args[0], &bound);
  ChainPath whole = WholeBodyPath(db.pool(), *chain);
  auto split = SplitPathByFiniteness(db.program(), *chain, whole, bound);
  CS_CHECK(split.ok()) << split.status();

  double entries = 0;
  for (auto _ : state) {
    CountingStats stats;
    auto answers =
        CountingEvaluate(&db, *chain, *split, query, {}, &stats);
    CS_CHECK(answers.ok()) << answers.status();
    entries = static_cast<double>(stats.up_entries);
  }
  state.counters["up_entries"] = entries;
  state.SetComplexityN(n);
}

BENCHMARK(BufferedSplit)
    ->Unit(benchmark::kMillisecond)
    ->RangeMultiplier(2)
    ->Range(16, 512)
    ->Complexity(benchmark::oNSquared);
BENCHMARK(TopDownSld)
    ->Unit(benchmark::kMillisecond)
    ->RangeMultiplier(2)
    ->Range(16, 512)
    ->Complexity(benchmark::oNSquared);
BENCHMARK(CountingMethod)
    ->Unit(benchmark::kMillisecond)
    ->RangeMultiplier(2)
    ->Range(16, 512)
    ->Complexity(benchmark::oNSquared);

}  // namespace
}  // namespace chainsplit

int main(int argc, char** argv) {
  std::printf(
      "E5 (Example 4.1): isort(xs, Ys), |xs|=N — nested linear recursion "
      "via chain-split.\nExpected shape: all evaluators are O(N^2) (N "
      "levels x O(N) insert); buffered buffers exactly N values; the "
      "exact paper trace isort([5,7,1])=[1,5,7] is pinned in "
      "paper_traces_test.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
