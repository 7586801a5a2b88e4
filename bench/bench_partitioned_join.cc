// Benchmark for the partitioned parallel HashJoin (rel/ops.cc) against
// the serial join, on an scsg-shaped workload: one fixpoint round's
// delta joined against a chain relation whose derivations are heavily
// duplicated (the paper's same-generation programs re-derive the same
// pair through many paths), with a hot-key segment so partition skew
// telemetry has something to report.
//
// The partitioned join runs on an 8-thread pool regardless of the
// host's core count — on a single core its win is cache locality
// (probes grouped per partition walk ~1/P of the index structures);
// on a multi-core host partition affinity adds real parallel scaling
// on top. The serial join is the same HashJoin on a 1-thread pool.
//
// Before timing anything, main() differential-checks the two for
// byte-identical output (contents AND row order) and aborts on
// mismatch, so a reported speedup can never come from a wrong join.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "common/thread_pool.h"
#include "rel/ops.h"
#include "rel/relation.h"

namespace chainsplit {
namespace {

// Workload shape: ~1M-row build side over 512k distinct keys. The base
// segment has fan-out 1 (a long chain); the hot segment gives 1024
// keys ~512 extra successors each (the skewed hubs of a chain-split
// graph). Outputs collapse onto ~37k distinct tuples, so the timed
// loop is probe-bound, not output-insert-bound — matching the
// semi-naive rounds where duplicates dominate.
constexpr int64_t kKeys = 1 << 19;
constexpr int64_t kHotKeys = 1 << 10;
constexpr int64_t kHotRows = 1 << 19;
constexpr int64_t kProbeRows = 1 << 19;

void BuildEdge(Relation* edge, int64_t keys, int64_t hot_rows) {
  Tuple t(2);
  for (int64_t i = 0; i < keys; ++i) {
    t[0] = static_cast<TermId>(i);
    t[1] = static_cast<TermId>(i % 4096);
    edge->Insert(t);
  }
  for (int64_t j = 0; j < hot_rows; ++j) {
    t[0] = static_cast<TermId>(j % kHotKeys);
    t[1] = static_cast<TermId>(4096 + j / kHotKeys);
    edge->Insert(t);
  }
}

void BuildDelta(Relation* delta, int64_t rows, int64_t keys) {
  Tuple t(2);
  for (int64_t i = 0; i < rows; ++i) {
    t[0] = static_cast<TermId>(i % 64);
    t[1] = static_cast<TermId>(i % keys);
    delta->Insert(t);
  }
}

struct Workload {
  Relation edge{2};
  Relation delta{2};
  JoinSpec spec{{{1, 0}}};  // delta.reached == edge.from
  std::vector<int> out_cols{0, 3};

  Workload() {
    BuildEdge(&edge, kKeys, kHotRows);
    BuildDelta(&delta, kProbeRows, kKeys);
  }
};

Workload& SharedWorkload() {
  static Workload* w = new Workload();
  return *w;
}

/// The pools the two joins run on: 1 thread = the serial loop, 8 =
/// the partitioned path.
ThreadPool* BenchPool(int threads) {
  static ThreadPool* serial = new ThreadPool(1);
  static ThreadPool* parallel = new ThreadPool(8);
  return threads == 1 ? serial : parallel;
}

void RunJoin(int threads, Relation* out) {
  Workload& w = SharedWorkload();
  int64_t prev_rows = SetParallelJoinMinRows(1);
  HashJoin(w.delta, w.edge, w.spec, w.out_cols, out, BenchPool(threads));
  SetParallelJoinMinRows(prev_rows);
}

void BM_Join(benchmark::State& state, int threads) {
  Workload& w = SharedWorkload();
  const PartitionedJoinTelemetry before = GetPartitionedJoinTelemetry();
  int64_t out_rows = 0;
  for (auto _ : state) {
    Relation out(2);
    RunJoin(threads, &out);
    out_rows = out.num_rows();
    benchmark::DoNotOptimize(out_rows);
  }
  const PartitionedJoinTelemetry after = GetPartitionedJoinTelemetry();
  state.SetItemsProcessed(state.iterations() * w.delta.num_rows());
  state.counters["out_rows"] = static_cast<double>(out_rows);
  state.counters["build_rows"] = static_cast<double>(w.edge.num_rows());
  // Partition-skew telemetry (absent on the serial join): the JSON
  // reports how balanced the radix split was.
  const int64_t batches = after.batches - before.batches;
  if (batches > 0) {
    const double partitions =
        static_cast<double>(after.partitions - before.partitions) / batches;
    const double max_rows =
        static_cast<double>(after.max_partition_rows -
                            before.max_partition_rows) /
        batches;
    const double build =
        static_cast<double>(after.build_rows - before.build_rows) / batches;
    state.counters["partitions"] = partitions;
    state.counters["max_partition_rows"] = max_rows;
    state.counters["partition_skew"] =
        build > 0 ? max_rows * partitions / build : 1.0;
    state.counters["views_built"] =
        static_cast<double>(after.views_built - before.views_built);
    // View-cache effectiveness: the edge relation never moves during
    // the timed loop, so after the first build every iteration should
    // hit the keyed LRU (rel/relation.h).
    const double hits = static_cast<double>(after.view_hits - before.view_hits);
    const double misses =
        static_cast<double>(after.view_misses - before.view_misses);
    state.counters["view_hits"] = hits;
    state.counters["view_misses"] = misses;
    state.counters["view_hit_rate"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
  }
}

BENCHMARK_CAPTURE(BM_Join, serial, 1)
    ->Name("join/serial")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Join, partitioned, 8)
    ->Name("join/partitioned8")
    ->Unit(benchmark::kMillisecond);

/// Differential check: the partitioned join must produce byte-identical
/// output to the serial one — same tuples in the same row order.
bool OutputsIdentical() {
  Relation serial(2), partitioned(2);
  RunJoin(1, &serial);
  RunJoin(8, &partitioned);
  if (partitioned.num_rows() != serial.num_rows()) {
    std::fprintf(stderr, "join output row count mismatch: %lld vs %lld\n",
                 static_cast<long long>(partitioned.num_rows()),
                 static_cast<long long>(serial.num_rows()));
    return false;
  }
  for (int64_t i = 0; i < serial.num_rows(); ++i) {
    if (!(partitioned.row(i) == serial.row(i))) {
      std::fprintf(stderr, "join output differs at row %lld\n",
                   static_cast<long long>(i));
      return false;
    }
  }
  return true;
}

/// Asserts the partitioned-view LRU actually caches: joining the same
/// stable build side repeatedly must build at most one view (the first
/// join) and hit the cache on every later one. Guards against a
/// regression where the cache thrashes (every join a miss) — the bug
/// this telemetry was added to catch.
bool ViewCacheHitRateHealthy() {
  const PartitionedJoinTelemetry before = GetPartitionedJoinTelemetry();
  for (int i = 0; i < 3; ++i) {
    Relation out(2);
    RunJoin(8, &out);
  }
  const PartitionedJoinTelemetry after = GetPartitionedJoinTelemetry();
  const int64_t hits = after.view_hits - before.view_hits;
  const int64_t misses = after.view_misses - before.view_misses;
  if (hits < 2 || misses > 1) {
    std::fprintf(stderr,
                 "view cache thrashing: %lld hits / %lld misses over 3 "
                 "identical joins (expected >=2 hits, <=1 miss)\n",
                 static_cast<long long>(hits),
                 static_cast<long long>(misses));
    return false;
  }
  std::printf("view cache hit rate healthy: %lld hits / %lld misses\n",
              static_cast<long long>(hits), static_cast<long long>(misses));
  return true;
}

}  // namespace
}  // namespace chainsplit

int main(int argc, char** argv) {
  if (!chainsplit::OutputsIdentical()) {
    std::fprintf(stderr,
                 "FATAL: parallel join output not byte-identical to the "
                 "serial oracle; refusing to benchmark a wrong join\n");
    return 1;
  }
  std::printf("partitioned join output byte-identical to serial\n");
  if (!chainsplit::ViewCacheHitRateHealthy()) {
    std::fprintf(stderr,
                 "FATAL: partitioned-view cache hit rate below the "
                 "acceptance bar\n");
    return 1;
  }
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
