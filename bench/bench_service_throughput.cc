// Service throughput: the concurrent query service replaying mixed
// read/update workloads over a transitive-closure graph.
//
// Claim: on a repeated-query workload, result-cache hits served under
// the shared lock let N client threads multiply throughput over the
// uncached single-threaded baseline (the acceptance gate checks >= 5x
// at 8 clients), while answers stay byte-identical to uncached
// evaluation.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "ast/parser.h"
#include "common/strings.h"
#include "core/planner.h"
#include "net/blocking_client.h"
#include "service/batch_driver.h"
#include "service/query_service.h"
#include "service/server.h"
#include "workload/graph_gen.h"

namespace chainsplit {
namespace {

constexpr const char* kTcProgram =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n";

constexpr int kNodes = 200;
constexpr int kEdges = 500;
constexpr int kDistinctQueries = 8;
/// The uncached phase uses a wider query set so concurrent clients
/// mostly work on different queries (no cache to share anyway).
constexpr int kDistinctUncachedQueries = 24;

void SeedGraph(Database* db) {
  GraphOptions graph;
  graph.num_nodes = kNodes;
  graph.num_edges = kEdges;
  graph.acyclic = true;  // finite tc without cycle handling cost
  graph.seed = 29;
  GenerateGraph(db, "edge", graph);
}

void Seed(QueryService* service) {
  SeedGraph(&service->db());
  UpdateResponse rules = service->Update(kTcProgram);
  CS_CHECK(rules.status.ok()) << rules.status;
}

std::vector<BatchOp> QueryOps() {
  std::vector<BatchOp> ops;
  for (int i = 0; i < kDistinctQueries; ++i) {
    ops.push_back(
        {BatchOp::Kind::kQuery, StrCat("?- tc(n", i * 7, ", Y).")});
  }
  return ops;
}

std::vector<BatchOp> UncachedQueryOps() {
  std::vector<BatchOp> ops;
  for (int i = 0; i < kDistinctUncachedQueries; ++i) {
    ops.push_back(
        {BatchOp::Kind::kQuery, StrCat("?- tc(n", i * 5, ", Y).")});
  }
  return ops;
}

std::string FlattenAnswers(const QueryResponse& response) {
  std::string flat;
  for (const auto& row : response.rows) {
    flat += StrJoin(row, ",");
    flat += ";";
  }
  return flat;
}

/// Differential gate, run once at startup: cached answers must be
/// byte-identical to the uncached reference for every workload query.
void CheckCachedMatchesUncached() {
  QueryService service;
  Seed(&service);
  RequestOptions bypass;
  bypass.bypass_cache = true;
  for (const BatchOp& op : QueryOps()) {
    QueryResponse cold = service.Query(op.text, bypass);
    QueryResponse warm1 = service.Query(op.text);   // fills the cache
    QueryResponse warm2 = service.Query(op.text);   // served from it
    CS_CHECK(cold.status.ok()) << cold.status;
    CS_CHECK(warm1.status.ok()) << warm1.status;
    CS_CHECK(warm2.status.ok()) << warm2.status;
    CS_CHECK(warm2.result_cache_hit) << op.text;
    const std::string reference = FlattenAnswers(cold);
    CS_CHECK(FlattenAnswers(warm1) == reference) << op.text;
    CS_CHECK(FlattenAnswers(warm2) == reference) << op.text;
  }
  std::printf("differential check: cached == uncached on %d queries\n",
              kDistinctQueries);
}

/// The reference answers of `text`: EvaluateQuery directly on a
/// private, identically seeded Database (the pre-overlay semantics,
/// where derived relations land in the base), flattened like
/// FlattenAnswers().
std::string ReferenceAnswers(const std::string& text) {
  Database db;
  SeedGraph(&db);
  Status rules = ParseProgram(kTcProgram, &db.program());
  CS_CHECK(rules.ok()) << rules;
  StatusOr<Query> query = ParseQueryOnly(text, &db.program());
  CS_CHECK(query.ok()) << query.status();
  StatusOr<QueryResult> result = EvaluateQuery(&db, *query);
  CS_CHECK(result.ok()) << result.status();
  std::string flat;
  for (const Tuple& row : result->answers) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) flat += ",";
      flat += db.pool().ToString(row[i]);
    }
    flat += ";";
  }
  return flat;
}

/// Differential gate for the overlay path, run once at startup: the
/// shared-lock overlay evaluation must produce byte-identical answers
/// to the reference, and must leave the base database untouched (no
/// new relations, no version bumps).
void CheckOverlayMatchesReference() {
  QueryService service;
  Seed(&service);
  Database& db = service.db();

  // Snapshot the base: which relations exist and their versions.
  std::vector<std::pair<PredId, uint64_t>> before;
  for (PredId pred : db.StoredPredicates()) {
    before.emplace_back(pred, db.GetRelation(pred)->version());
  }

  RequestOptions overlay;
  overlay.bypass_cache = true;  // default path: shared lock + overlay
  for (const BatchOp& op : UncachedQueryOps()) {
    QueryResponse r = service.Query(op.text, overlay);
    CS_CHECK(r.status.ok()) << r.status;
    CS_CHECK(FlattenAnswers(r) == ReferenceAnswers(op.text)) << op.text;
  }

  // The overlay path must not have touched the base.
  std::vector<PredId> preds_after = db.StoredPredicates();
  CS_CHECK(preds_after.size() == before.size())
      << "overlay evaluation created base relations";
  for (const auto& [pred, version] : before) {
    CS_CHECK(db.GetRelation(pred)->version() == version)
        << "overlay evaluation bumped a base relation version";
  }
  std::printf(
      "differential check: overlay == reference on %d queries, "
      "base untouched\n",
      kDistinctUncachedQueries);
}

void ReportBatch(benchmark::State& state, const BatchReport& report,
                 double* qps) {
  CS_CHECK(report.errors == 0) << report.errors << " request errors";
  *qps = report.qps;
  state.counters["qps"] = report.qps;
  state.counters["p50_ms"] = report.p50_ms;
  state.counters["p99_ms"] = report.p99_ms;
  state.counters["result_hit_rate"] = report.result_hit_rate;
  state.counters["answer_rows"] = static_cast<double>(report.answer_rows);
}

/// Uncached single-threaded baseline: every query re-parsed, re-planned
/// and re-evaluated (through a query-local overlay, like all uncached
/// evaluation).
void UncachedSingleThread(benchmark::State& state) {
  double qps = 0;
  for (auto _ : state) {
    state.PauseTiming();
    QueryService service;
    Seed(&service);
    state.ResumeTiming();
    BatchOptions options;
    options.num_clients = 1;
    options.ops_per_client = 64;
    options.request.bypass_cache = true;
    BatchReport report = RunBatchWorkload(&service, QueryOps(), options);
    ReportBatch(state, report, &qps);
  }
}

/// Folds the interesting registry series into the benchmark counters,
/// so BENCH_service.json carries the run's registry snapshot (work
/// measures and the latency quantiles) next to the throughput numbers.
void SnapshotRegistry(benchmark::State& state, const QueryService& service) {
  for (const MetricSample& sample : service.metrics()->Snapshot()) {
    std::string key = sample.name;
    for (const auto& label : sample.labels) key += StrCat("_", label.second);
    if (key == "csdd_queries_total" ||
        key == "csdd_fixpoint_iterations_total" ||
        key == "csdd_derived_tuples_total" ||
        key == "csdd_evals_total_shared" ||
        key == "csdd_query_latency_us_count" ||
        StartsWith(key, "csdd_query_latency_us_quantile")) {
      state.counters[key] = sample.value;
    }
  }
}

/// Uncached multi-client phase: N clients each issuing distinct
/// cache-bypassing queries. Every evaluation holds only the shared
/// lock and writes into its own overlay, so the aggregate qps should
/// scale with clients on a multi-core host (on a single core the
/// 1/2/4/8 trend just records the locking overhead).
void UncachedClients(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  double qps = 0;
  for (auto _ : state) {
    state.PauseTiming();
    QueryService service;
    Seed(&service);
    ServiceStats s0 = service.stats();
    state.ResumeTiming();
    BatchOptions options;
    options.num_clients = clients;
    options.ops_per_client = 32;
    options.request.bypass_cache = true;
    BatchReport report =
        RunBatchWorkload(&service, UncachedQueryOps(), options);
    ReportBatch(state, report, &qps);
    ServiceStats s1 = service.stats();
    state.counters["shared_evals"] =
        static_cast<double>(s1.shared_evals - s0.shared_evals);
    state.counters["exclusive_evals"] =
        static_cast<double>(s1.exclusive_evals - s0.exclusive_evals);
    state.counters["overlay_bytes"] =
        static_cast<double>(s1.overlay_bytes - s0.overlay_bytes);
    SnapshotRegistry(state, service);
  }
}

/// Instrumentation overhead on the uncached single-client path: the
/// same workload untraced (the production default: per query, the
/// metrics layer costs a handful of wait-free fetch_adds and two
/// relaxed atomic loads) and with tracing on (every query records its
/// full span tree). Acceptance (docs/perf_notes.md): trace_overhead_pct
/// stays <= 2 on UncachedClients/1-shaped work.
void TraceOverhead(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    QueryService service;
    Seed(&service);
    const std::vector<BatchOp> ops = UncachedQueryOps();
    RequestOptions request;
    request.bypass_cache = true;
    // Warm-up, then interleave traced/untraced single queries and
    // compare per-mode medians. Shared-box noise drifts on a scale of
    // whole batches, so timing the two modes as separate runs mostly
    // measures the machine, not the instrumentation; alternating query
    // by query subjects both modes to the same noise and the median
    // discards the outliers.
    for (const BatchOp& op : ops) {
      QueryResponse r = service.Query(op.text, request);
      CS_CHECK(r.status.ok()) << r.status;
    }
    state.ResumeTiming();
    std::vector<double> untraced_us;
    std::vector<double> traced_us;
    constexpr int kRounds = 48;
    for (int round = 0; round < kRounds; ++round) {
      const bool traced = (round & 1) != 0;
      service.set_tracing(traced);
      for (const BatchOp& op : ops) {
        const auto t0 = std::chrono::steady_clock::now();
        QueryResponse r = service.Query(op.text, request);
        const double us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        CS_CHECK(r.status.ok()) << r.status;
        (traced ? traced_us : untraced_us).push_back(us);
      }
    }
    service.set_tracing(false);
    auto median = [](std::vector<double>& v) {
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    const double untraced = median(untraced_us);
    const double traced = median(traced_us);
    state.counters["untraced_qps"] = untraced > 0 ? 1e6 / untraced : 0;
    state.counters["traced_qps"] = traced > 0 ? 1e6 / traced : 0;
    state.counters["trace_overhead_pct"] =
        untraced > 0 ? (traced - untraced) / untraced * 100.0 : 0;
    SnapshotRegistry(state, service);
  }
}

/// The service path: N clients on the repeated-query workload; after
/// the first round per query, hits run concurrently under the shared
/// lock.
void CachedClients(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  double qps = 0;
  for (auto _ : state) {
    state.PauseTiming();
    QueryService service;
    Seed(&service);
    state.ResumeTiming();
    BatchOptions options;
    options.num_clients = clients;
    options.ops_per_client = 512;
    BatchReport report = RunBatchWorkload(&service, QueryOps(), options);
    ReportBatch(state, report, &qps);
  }
}

/// Mixed workload: ~12% of ops insert fresh edge facts (invalidating
/// the tc entries), the rest are the repeated queries.
void MixedReadUpdate(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  double qps = 0;
  int round = 0;
  for (auto _ : state) {
    state.PauseTiming();
    QueryService service;
    Seed(&service);
    std::vector<BatchOp> ops = QueryOps();
    // One update per kDistinctQueries queries; fresh node names so
    // every insert is a new tuple.
    ops.push_back({BatchOp::Kind::kUpdate,
                   StrCat("edge(m", round, "a, m", round, "b).\n")});
    ++round;
    state.ResumeTiming();
    BatchOptions options;
    options.num_clients = clients;
    options.ops_per_client = 256;
    BatchReport report = RunBatchWorkload(&service, ops, options);
    ReportBatch(state, report, &qps);
  }
}

/// The same cached workload, but end-to-end through the epoll network
/// front end: N socket clients on loopback, each request a full
/// framed round trip. The gap to CachedClients/N is the protocol +
/// event-loop overhead; the net counters land in BENCH_service.json.
void NetRoundTrip(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  constexpr int kOpsPerClient = 256;
  for (auto _ : state) {
    state.PauseTiming();
    QueryService service;
    Seed(&service);
    TcpServer server(&service);
    StatusOr<int> port = server.Start(0);
    CS_CHECK(port.ok()) << port.status();
    std::vector<std::string> queries;
    for (const BatchOp& op : QueryOps()) queries.push_back(op.text + "\n");
    std::atomic<int64_t> errors{0};
    state.ResumeTiming();

    const auto start = std::chrono::steady_clock::now();
    {
      std::vector<std::thread> load;
      load.reserve(static_cast<size_t>(clients));
      for (int c = 0; c < clients; ++c) {
        load.emplace_back([&, c] {
          BlockingClient client("127.0.0.1", *port);
          if (!client.connected()) {
            errors.fetch_add(kOpsPerClient);
            return;
          }
          client.ReadFrame();  // banner
          for (int i = 0; i < kOpsPerClient; ++i) {
            const std::string& q = queries[(c + i) % queries.size()];
            if (!client.Send(q) ||
                client.ReadFrame().find("answer") == std::string::npos) {
              errors.fetch_add(1);
            }
          }
        });
      }
      for (std::thread& t : load) t.join();
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    state.PauseTiming();
    CS_CHECK(errors.load() == 0) << errors.load() << " round-trip errors";
    const NetCounters& net = server.net_counters();
    const double total_ops = static_cast<double>(clients) * kOpsPerClient;
    state.counters["qps"] = seconds > 0 ? total_ops / seconds : 0;
    state.counters["net_dispatched"] =
        static_cast<double>(net.dispatched.load());
    state.counters["net_bytes_in"] = static_cast<double>(net.bytes_in.load());
    state.counters["net_bytes_out"] =
        static_cast<double>(net.bytes_out.load());
    state.counters["net_queue_high_watermark"] =
        static_cast<double>(net.queue_high_watermark.load());
    state.counters["net_rejected_overload"] =
        static_cast<double>(net.rejected_overload.load());
    server.Stop();
    state.ResumeTiming();
  }
}

/// WAL overhead on an insert-only update stream: the same workload
/// with durability off (arg 0) vs wal-sync=none/interval/always
/// (args 1/2/3). Every update is one exclusive-lock mutation and one
/// log record. Acceptance (docs/perf_notes.md): wal-sync=interval
/// stays within ~10% of the no-WAL baseline; wal-sync=always pays one
/// fsync per update and is expected to be much slower on real disks.
void WalOverhead(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  constexpr int kUpdates = 256;
  constexpr int kFactsPerUpdate = 8;  // a realistic batched insert
  int round = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         StrCat("cs_bench_wal_", ::getpid(), "_", mode, "_", round))
            .string();
    std::filesystem::remove_all(dir);
    QueryService service;
    if (mode > 0) {
      DurabilityOptions durability;
      durability.data_dir = dir;
      durability.wal.sync = mode == 1   ? WalSyncPolicy::kNone
                            : mode == 2 ? WalSyncPolicy::kInterval
                                        : WalSyncPolicy::kAlways;
      StatusOr<RecoveryResult> enabled = service.EnableDurability(durability);
      CS_CHECK(enabled.ok()) << enabled.status();
    }
    state.ResumeTiming();

    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kUpdates; ++i) {
      std::string text;
      for (int j = 0; j < kFactsPerUpdate; ++j) {
        text += StrCat("edge(w", round, "x", i, "f", j, "a, w", round, "x",
                       i, "f", j, "b).\n");
      }
      UpdateResponse r = service.Update(text);
      CS_CHECK(r.status.ok()) << r.status;
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    state.PauseTiming();
    state.counters["facts_per_s"] =
        seconds > 0 ? kUpdates * kFactsPerUpdate / seconds : 0;
    state.counters["wal_sync_mode"] = mode;
    if (mode > 0) {
      DurabilityStats dur = service.durability_stats();
      state.counters["wal_records"] = static_cast<double>(dur.wal_records);
      state.counters["wal_bytes"] = static_cast<double>(dur.wal_bytes);
      state.counters["wal_syncs"] = static_cast<double>(dur.wal_syncs);
    }
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
    ++round;
  }
}

BENCHMARK(UncachedSingleThread)->Unit(benchmark::kMillisecond)->Iterations(3);
BENCHMARK(UncachedClients)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(3);
BENCHMARK(TraceOverhead)->Unit(benchmark::kMillisecond)->Iterations(3);
BENCHMARK(CachedClients)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(8)
    ->Iterations(3);
BENCHMARK(MixedReadUpdate)
    ->Unit(benchmark::kMillisecond)
    ->Arg(8)
    ->Iterations(3);
BENCHMARK(NetRoundTrip)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(8)
    ->Iterations(3);
BENCHMARK(WalOverhead)
    ->Unit(benchmark::kMillisecond)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Iterations(3);

}  // namespace
}  // namespace chainsplit

int main(int argc, char** argv) {
  std::printf(
      "Service throughput: QueryService replaying transitive-closure "
      "workloads.\nExpected shape: CachedClients/8 sustains >= 5x the "
      "qps of UncachedSingleThread (shared-lock cache hits); "
      "UncachedClients/N scales with cores (shared-lock overlay "
      "evaluation, no cache); MixedReadUpdate shows the cost of "
      "invalidating writes; TraceOverhead bounds the per-query tracing "
      "cost (trace_overhead_pct <= 2 expected); NetRoundTrip adds the "
      "epoll front end's framed-socket round trip on top of the cached "
      "path; WalOverhead "
      "compares the insert stream with durability off vs "
      "wal-sync=none/interval/always (interval should stay within ~10%% "
      "of off).\n\n");
  chainsplit::CheckCachedMatchesUncached();
  chainsplit::CheckOverlayMatchesReference();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
