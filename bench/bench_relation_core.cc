// Microbenchmark for the Relation storage core: Insert, Probe, and
// UnionWith on the arena-backed implementation versus a faithful copy
// of the historical node-based implementation (unordered_set of Tuples
// plus unordered_map postings), kept here as the in-bench baseline.
//
// Run via bench/run_benchmarks.sh; the acceptance bar for the storage
// rewrite is >= 2x on the arena/* counterparts of legacy/*.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rel/relation.h"

namespace chainsplit {
namespace {

/// The pre-arena Relation, verbatim in behaviour: per-tuple heap nodes,
/// Tuple-keyed hash maps for indexes, materialized probe keys.
class LegacyRelation {
 public:
  explicit LegacyRelation(int arity) : arity_(arity) {}
  LegacyRelation(const LegacyRelation&) = delete;
  LegacyRelation& operator=(const LegacyRelation&) = delete;

  int arity() const { return arity_; }
  int64_t num_rows() const { return static_cast<int64_t>(rows_.size()); }

  bool Insert(const Tuple& tuple) {
    auto [it, inserted] = set_.insert(tuple);
    if (!inserted) return false;
    rows_.push_back(&*it);
    int64_t row_id = static_cast<int64_t>(rows_.size()) - 1;
    for (Index& index : indexes_) {
      index.map[KeyAt(tuple, index.columns)].push_back(row_id);
    }
    return true;
  }

  const Tuple& row(int64_t i) const { return *rows_[i]; }

  const std::vector<int64_t>& Probe(const std::vector<int>& columns,
                                    const Tuple& key) const {
    const Index& index = GetOrBuildIndex(columns);
    auto it = index.map.find(key);
    if (it == index.map.end()) return kEmptyPostings;
    return it->second;
  }

  int64_t UnionWith(const LegacyRelation& other) {
    int64_t added = 0;
    for (int64_t i = 0; i < other.num_rows(); ++i) {
      if (Insert(other.row(i))) ++added;
    }
    return added;
  }

  void Clear() {
    set_.clear();
    rows_.clear();
    indexes_.clear();
  }

 private:
  struct Index {
    std::vector<int> columns;
    std::unordered_map<Tuple, std::vector<int64_t>, TupleHash> map;
  };

  static Tuple KeyAt(const Tuple& tuple, const std::vector<int>& columns) {
    Tuple key;
    key.reserve(columns.size());
    for (int c : columns) key.push_back(tuple[c]);
    return key;
  }

  Index& GetOrBuildIndex(const std::vector<int>& columns) const {
    for (Index& index : indexes_) {
      if (index.columns == columns) return index;
    }
    indexes_.push_back(Index{columns, {}});
    Index& index = indexes_.back();
    for (int64_t i = 0; i < num_rows(); ++i) {
      index.map[KeyAt(*rows_[i], columns)].push_back(i);
    }
    return index;
  }

  int arity_;
  std::unordered_set<Tuple, TupleHash> set_;
  std::vector<const Tuple*> rows_;
  mutable std::vector<Index> indexes_;

  static const std::vector<int64_t> kEmptyPostings;
};

const std::vector<int64_t> LegacyRelation::kEmptyPostings = {};

// Workload shape shared by every benchmark below: binary tuples with a
// skewed first column (graph-like fan-out) and ~12% duplicates, the mix
// the semi-naive delta loops produce.
inline Tuple MakeTuple(int64_t i) {
  return {static_cast<TermId>(i % 211), static_cast<TermId>(i % 7001)};
}

template <typename R>
void FillRelation(R* rel, int64_t n) {
  for (int64_t i = 0; i < n; ++i) rel->Insert(MakeTuple(i));
}

template <typename R>
void BM_Insert(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    R rel(2);
    FillRelation(&rel, n);
    benchmark::DoNotOptimize(rel.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

template <typename R>
void BM_InsertIndexed(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    R rel(2);
    rel.Insert(MakeTuple(0));
    benchmark::DoNotOptimize(rel.Probe({0}, {0}).size());  // force the index
    FillRelation(&rel, n);
    benchmark::DoNotOptimize(rel.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

// Probe-and-consume, the evaluators' inner loop: look up a key, then
// read a column of every matching row. 211 probes sweep all n rows.
template <typename R>
void BM_Probe(benchmark::State& state) {
  const int64_t n = state.range(0);
  R rel(2);
  FillRelation(&rel, n);
  const std::vector<int> columns = {0};
  Tuple key = {0};
  rel.Probe(columns, key);  // build the index outside the timed loop
  int64_t sum = 0;
  for (auto _ : state) {
    for (TermId k = 0; k < 211; ++k) {
      key[0] = k;
      if constexpr (std::is_same_v<R, Relation>) {
        rel.ProbeEach(columns, key.data(),
                      [&](int64_t j) { sum += rel.row(j)[1]; });
      } else {
        for (int64_t j : rel.Probe(columns, key)) sum += rel.row(j)[1];
      }
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * n);
}

template <typename R>
void BM_UnionWith(benchmark::State& state) {
  const int64_t n = state.range(0);
  R half(2);
  R full(2);
  FillRelation(&half, n / 2);
  FillRelation(&full, n);
  for (auto _ : state) {
    R dst(2);
    dst.UnionWith(half);
    benchmark::DoNotOptimize(dst.UnionWith(full));  // half dup, half new
  }
  state.SetItemsProcessed(state.iterations() * (n + n / 2));
}

BENCHMARK(BM_Insert<Relation>)->Name("arena/Insert")->Arg(1 << 15)->Arg(1 << 17);
BENCHMARK(BM_Insert<LegacyRelation>)
    ->Name("legacy/Insert")
    ->Arg(1 << 15)
    ->Arg(1 << 17);
BENCHMARK(BM_InsertIndexed<Relation>)
    ->Name("arena/InsertIndexed")
    ->Arg(1 << 15)
    ->Arg(1 << 17);
BENCHMARK(BM_InsertIndexed<LegacyRelation>)
    ->Name("legacy/InsertIndexed")
    ->Arg(1 << 15)
    ->Arg(1 << 17);
BENCHMARK(BM_Probe<Relation>)->Name("arena/Probe")->Arg(1 << 16)->Arg(1 << 17);
BENCHMARK(BM_Probe<LegacyRelation>)
    ->Name("legacy/Probe")
    ->Arg(1 << 16)
    ->Arg(1 << 17);
BENCHMARK(BM_UnionWith<Relation>)
    ->Name("arena/UnionWith")
    ->Arg(1 << 14)
    ->Arg(1 << 17);
BENCHMARK(BM_UnionWith<LegacyRelation>)
    ->Name("legacy/UnionWith")
    ->Arg(1 << 14)
    ->Arg(1 << 17);

}  // namespace
}  // namespace chainsplit

BENCHMARK_MAIN();
