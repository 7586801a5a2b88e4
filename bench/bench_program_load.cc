// Program loading: ParseProgram + Database::LoadProgramFacts on program
// text of the shape the paper's workloads load — a family EDB
// (parent/2 plus a materialized same_country/2, as in the
// point_recursive service workload) and a graph EDB (edge/2 over
// disjoint 100-node components, as in deep_closure) — at 10k, 100k and
// 470k facts.
//
// Reports bytes/s (MB/s of program text) and facts/s for the whole
// load, and the parse and fact-load milliseconds separately, so the
// cost of loading has a per-layer number of its own.

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <random>
#include <string>

#include "ast/parser.h"
#include "common/strings.h"
#include "rel/catalog.h"

namespace chainsplit {
namespace {

// 16 families x depth 5 x fanout 3 = 1,936 persons in 8 countries: the
// parent facts first, then same_country over every pair in a country
// (468,512 facts), cut off after `facts` facts.
std::string FamilyProgram(int64_t facts) {
  constexpr int kFamilies = 16, kPerFamily = 121, kFanout = 3;
  constexpr int kPersons = kFamilies * kPerFamily, kCountries = 8;
  std::string text;
  int64_t emitted = 0;
  auto emit = [&](std::string_view pred, int a, int b) {
    if (emitted++ >= facts) return;
    text += StrCat(pred, "(p", a, ", p", b, ").\n");
  };
  for (int f = 0; f < kFamilies; ++f) {
    // Within a family, person i's parent is person (i - 1) / fanout.
    for (int i = 1; i < kPerFamily; ++i) {
      emit("parent", f * kPerFamily + i, f * kPerFamily + (i - 1) / kFanout);
    }
  }
  for (int c = 0; c < kCountries; ++c) {
    for (int a = c; a < kPersons; a += kCountries) {
      for (int b = c; b < kPersons; b += kCountries) emit("same_country", a, b);
    }
  }
  text +=
      "sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).\n"
      "scsg(X, Y) :- parent(X, X1), same_country(X1, Y1), parent(Y, Y1),\n"
      "              scsg(X1, Y1).\n";
  return text;
}

// Components of 100 nodes with 144 edges each between random node
// pairs (duplicates allowed; the relation stores them once).
std::string EdgeProgram(int64_t facts) {
  std::mt19937_64 rng(7);
  std::string text;
  for (int64_t i = 0; i < facts; ++i) {
    const int64_t component = i / 144;
    text += StrCat("edge(n", component, "_", rng() % 100, ", n", component,
                   "_", rng() % 100, ").\n");
  }
  text +=
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n";
  return text;
}

void Load(benchmark::State& state, const std::string& text) {
  using Clock = std::chrono::steady_clock;
  double parse_s = 0;
  double load_s = 0;
  int64_t facts = 0;
  for (auto _ : state) {
    auto db = std::make_unique<Database>();
    const Clock::time_point start = Clock::now();
    Status status = ParseProgram(text, &db->program());
    CS_CHECK(status.ok()) << status;
    const Clock::time_point parsed = Clock::now();
    facts = db->program().num_staged_facts();
    status = db->LoadProgramFacts();
    CS_CHECK(status.ok()) << status;
    const Clock::time_point loaded = Clock::now();
    parse_s += std::chrono::duration<double>(parsed - start).count();
    load_s += std::chrono::duration<double>(loaded - parsed).count();
    state.PauseTiming();
    db.reset();
    state.ResumeTiming();
  }
  const double iterations = static_cast<double>(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
  state.counters["facts_per_s"] = benchmark::Counter(
      static_cast<double>(facts) * iterations, benchmark::Counter::kIsRate);
  state.counters["facts"] = static_cast<double>(facts);
  state.counters["text_mb"] = static_cast<double>(text.size()) / 1e6;
  state.counters["parse_ms"] = 1e3 * parse_s / iterations;
  state.counters["fact_load_ms"] = 1e3 * load_s / iterations;
}

void FamilyLoad(benchmark::State& state) {
  Load(state, FamilyProgram(state.range(0)));
}
void EdgeLoad(benchmark::State& state) {
  Load(state, EdgeProgram(state.range(0)));
}

BENCHMARK(FamilyLoad)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(470000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(EdgeLoad)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(470000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace chainsplit

BENCHMARK_MAIN();
