// E2 — §2.1 Heuristic 2.1: the chain-follow / chain-split crossover.
//
// Paper claim: whether to split depends on the join expansion ratio of
// the connecting predicate. We sweep the number of countries (the
// same_country fan-out is persons/countries): with few countries the
// linkage is weak and splitting wins; with many countries the linkage
// is selective and following (which also restricts the Y side) is
// competitive. The cost-model gate should track the better plan.

#include <benchmark/benchmark.h>

#include <optional>

#include "ast/parser.h"
#include "common/strings.h"
#include "core/cost_model.h"
#include "core/planner.h"
#include "workload/family_gen.h"

namespace chainsplit {
namespace {

/// One scsg query per iteration: forced to `force`, or planned by the
/// Algorithm 3.1 gate when `force` is empty. Every run reports the same
/// three counters (the CSV reporter requires it).
void RunThreshold(benchmark::State& state, std::optional<Technique> force) {
  const int countries = static_cast<int>(state.range(0));
  double derived = 0;
  double ratio = 0;
  double chose_split = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    FamilyOptions fam;
    fam.num_families = 2;
    fam.depth = 5;
    fam.fanout = 3;
    fam.num_countries = countries;
    FamilyData data = GenerateFamily(&db, fam);
    Status status = ParseProgram(ScsgProgramSource(), &db.program());
    CS_CHECK(status.ok()) << status;
    status = db.LoadProgramFacts();
    CS_CHECK(status.ok()) << status;
    PredId scsg = db.program().preds().Find("scsg", 2).value();
    Query query;
    query.goals.push_back(
        Atom{scsg, {data.query_person, db.pool().MakeVariable("Y")}});
    PredId sc = db.program().preds().Find("same_country", 2).value();
    ratio = EstimateJoinExpansion(db.Stats(sc), "bf");
    state.ResumeTiming();

    PlannerOptions options;
    options.force = force;
    auto result = EvaluateQuery(&db, query, options);
    CS_CHECK(result.ok()) << result.status();
    derived = static_cast<double>(result->seminaive_stats.total_derived);
    chose_split =
        result->technique == Technique::kChainSplitMagic ? 1.0 : 0.0;
  }
  state.counters["derived"] = derived;
  state.counters["expansion_ratio"] = ratio;
  state.counters["chose_split"] = chose_split;
}

void Follow(benchmark::State& state) {
  RunThreshold(state, Technique::kMagicSets);
}
void Split(benchmark::State& state) {
  RunThreshold(state, Technique::kChainSplitMagic);
}
void AutoGate(benchmark::State& state) {
  // The planner's own decision (Algorithm 3.1 thresholds).
  RunThreshold(state, std::nullopt);
}

const std::vector<int64_t> kCountries = {1, 2, 4, 8, 16, 32, 64, 128};

BENCHMARK(Follow)
    ->Unit(benchmark::kMillisecond)
    ->ArgsProduct({kCountries})
    ->Iterations(5);
BENCHMARK(Split)
    ->Unit(benchmark::kMillisecond)
    ->ArgsProduct({kCountries})
    ->Iterations(5);
BENCHMARK(AutoGate)
    ->Unit(benchmark::kMillisecond)
    ->ArgsProduct({kCountries})
    ->Iterations(5);

}  // namespace
}  // namespace chainsplit

int main(int argc, char** argv) {
  std::printf(
      "E2 (Heuristic 2.1): scsg crossover sweep over #countries.\n"
      "Expected shape: Split's derived-tuple count is flat-ish; Follow's "
      "falls as countries grow (the linkage gets selective) and "
      "approaches Split; AutoGate chooses split exactly while the "
      "expansion ratio is above the threshold band.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
