// QueryService: live planning, result caching, epoch invalidation, deadlines,
// cancellation, and concurrent readers vs. a writer — differentially
// checked against the uncached (bypass) path.

#include "service/query_service.h"

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "service/batch_driver.h"
#include "workload/graph_gen.h"

namespace chainsplit {
namespace {

constexpr const char* kTcProgram =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n";

/// A service over a chain graph a0 -> a1 -> ... -> a<n>.
void SeedChain(QueryService* service, int length) {
  std::string text = kTcProgram;
  for (int i = 0; i < length; ++i) {
    text += StrCat("edge(a", i, ", a", i + 1, ").\n");
  }
  UpdateResponse seeded = service->Update(text);
  ASSERT_TRUE(seeded.status.ok()) << seeded.status;
}

std::string Flatten(const QueryResponse& response) {
  std::string flat;
  for (const std::vector<std::string>& row : response.rows) {
    flat += StrJoin(row, ",");
    flat += ";";
  }
  return flat;
}

TEST(ServiceTest, RejectsNonQueryText) {
  QueryService service;
  EXPECT_EQ(service.Query("p(a, b).").status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.Query("?- p(a, b)").status.code(),  // no terminator
            StatusCode::kInvalidArgument);
}

TEST(ServiceTest, ResultCacheHitAndCounters) {
  QueryService service;
  SeedChain(&service, 20);

  QueryResponse first = service.Query("?- tc(a0, Y).");
  ASSERT_TRUE(first.status.ok()) << first.status;
  EXPECT_FALSE(first.result_cache_hit);
  EXPECT_EQ(first.rows.size(), 20u);

  QueryResponse second = service.Query("?- tc(a0, Y).");
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.result_cache_hit);
  EXPECT_EQ(Flatten(second), Flatten(first));
  EXPECT_EQ(second.vars, first.vars);

  // Same query up to renaming and whitespace: hits, with the caller's
  // own variable name.
  QueryResponse renamed = service.Query("?-  tc( a0 , Z ). % comment");
  ASSERT_TRUE(renamed.status.ok());
  EXPECT_TRUE(renamed.result_cache_hit);
  EXPECT_EQ(renamed.vars, (std::vector<std::string>{"Z"}));
  EXPECT_EQ(Flatten(renamed), Flatten(first));

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.result_cache_hits, 2);
  EXPECT_EQ(stats.result_cache_misses, 1);
  EXPECT_EQ(stats.queries, 3);
}

TEST(ServiceTest, FactUpdateInvalidatesDependentResults) {
  QueryService service;
  SeedChain(&service, 10);
  service.Update("hub(h1, h2).\n");

  QueryResponse first = service.Query("?- tc(a0, Y).");
  ASSERT_TRUE(first.status.ok());
  QueryResponse hub_first = service.Query("?- hub(X, Y).");
  ASSERT_TRUE(hub_first.status.ok());

  // An update to an *unrelated* relation keeps the tc entry valid.
  UpdateResponse unrelated = service.Update("hub(h2, h3).\n");
  ASSERT_TRUE(unrelated.status.ok());
  EXPECT_TRUE(service.Query("?- tc(a0, Y).").result_cache_hit);
  // ...but invalidates the hub entry.
  QueryResponse hub_second = service.Query("?- hub(X, Y).");
  EXPECT_FALSE(hub_second.result_cache_hit);
  EXPECT_EQ(hub_second.rows.size(), 2u);

  // Extending the chain invalidates tc and the fresh answers include
  // the new edge.
  UpdateResponse extended = service.Update("edge(a10, a11).\n");
  ASSERT_TRUE(extended.status.ok());
  QueryResponse after = service.Query("?- tc(a0, Y).");
  EXPECT_FALSE(after.result_cache_hit);
  EXPECT_EQ(after.rows.size(), first.rows.size() + 1);

  ServiceStats stats = service.stats();
  EXPECT_GE(stats.result_cache_invalidations, 2);
}

TEST(ServiceTest, FailedUpdateLeavesNoIndexedFactBehind) {
  QueryService service;
  UpdateResponse seeded = service.Update(
      "sg(X, Y) :- sibling(X, Y).\n"
      "sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).\n"
      "sibling(a, b). parent(c, a). sg(e, f). parent(d, b).\n");
  ASSERT_TRUE(seeded.status.ok()) << seeded.status;
  const Program& program = service.db().program();
  EXPECT_EQ(program.num_staged_facts(), 0);

  // The parser stages sg(x, y) before it reaches the error.
  UpdateResponse failed =
      service.Update("sibling(x, z). sg(x, y). p(a) q(b).");
  EXPECT_FALSE(failed.status.ok());
  EXPECT_EQ(program.num_staged_facts(), 0);
  QueryResponse none = service.Query("?- sg(x, Y).");
  ASSERT_TRUE(none.status.ok()) << none.status;
  EXPECT_EQ(Flatten(none), "");

  ASSERT_TRUE(service.Update("sg(x, w).").status.ok());
  QueryResponse one = service.Query("?- sg(x, Y).");
  ASSERT_TRUE(one.status.ok()) << one.status;
  EXPECT_EQ(Flatten(one), "w;");
}

TEST(ServiceTest, BadCharacterAfterValidClausesChangesNothing) {
  const std::string dir = StrCat(::testing::TempDir(), "cs_service_badchar_",
                                 ::getpid());
  std::filesystem::remove_all(dir);
  {
    QueryService service;
    DurabilityOptions options;
    options.data_dir = dir;
    options.wal.sync = WalSyncPolicy::kNone;
    ASSERT_TRUE(service.EnableDurability(options).ok());
    SeedChain(&service, 5);
    const Program& program = service.db().program();
    EXPECT_EQ(program.num_staged_facts(), 0);
    const size_t rules = program.rules().size();
    const uint64_t epoch = service.rules_epoch();
    const Relation* edge =
        service.db().GetRelation(*program.preds().Find("edge", 2));
    ASSERT_NE(edge, nullptr);
    const int64_t rows = edge->num_rows();
    const DurabilityStats wal = service.durability_stats();
    const std::string before = Flatten(service.Query("?- tc(a0, Y)."));

    // Three valid clauses (two facts and a rule), then a bad character.
    UpdateResponse failed = service.Update(
        "edge(a5, a6).\nedge(a6, a7).\nr(X) :- edge(X, a7).\nedge(a7, $).\n");
    EXPECT_EQ(failed.status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(failed.status.message(), "unexpected character '$' at 4:10");
    EXPECT_EQ(program.num_staged_facts(), 0);
    EXPECT_EQ(program.rules().size(), rules);
    EXPECT_EQ(service.rules_epoch(), epoch);
    EXPECT_EQ(edge->num_rows(), rows);
    EXPECT_EQ(service.durability_stats().wal_records, wal.wal_records);
    EXPECT_EQ(service.durability_stats().wal_bytes, wal.wal_bytes);
    EXPECT_EQ(Flatten(service.Query("?- tc(a0, Y).")), before);
  }
  std::filesystem::remove_all(dir);
}

TEST(ServiceTest, PoisonedWalUpdateChangesNothing) {
  const std::string dir = StrCat(::testing::TempDir(), "cs_service_poison_",
                                 ::getpid());
  std::filesystem::remove_all(dir);
  std::string before;
  {
    QueryService service;
    DurabilityOptions options;
    options.data_dir = dir;
    options.wal.sync = WalSyncPolicy::kNone;
    ASSERT_TRUE(service.EnableDurability(options).ok());
    SeedChain(&service, 5);
    const Program& program = service.db().program();
    const Relation* edge =
        service.db().GetRelation(*program.preds().Find("edge", 2));
    ASSERT_NE(edge, nullptr);
    const int64_t rows = edge->num_rows();
    const size_t rules = program.rules().size();
    const DurabilityStats wal = service.durability_stats();
    before = Flatten(service.Query("?- tc(a0, Y)."));
    std::vector<WalSegment> segments = ListWalSegments(dir);
    ASSERT_EQ(segments.size(), 1u);
    const uintmax_t segment_bytes =
        std::filesystem::file_size(segments[0].path);

    // Cap this process's file size at the segment's: the next append
    // fails with EFBIG before writing a byte and poisons the log.
    struct rlimit saved;
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
    void (*saved_handler)(int) = std::signal(SIGXFSZ, SIG_IGN);
    struct rlimit capped = saved;
    capped.rlim_cur = static_cast<rlim_t>(segment_bytes);
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
    UpdateResponse failed =
        service.Update("edge(a5, a6).\nr(X) :- edge(X, a6).\n");
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
    std::signal(SIGXFSZ, saved_handler);

    EXPECT_EQ(failed.status.code(), StatusCode::kInternal);
    EXPECT_TRUE(StartsWith(failed.status.message(), "write ")) << failed.status;
    EXPECT_EQ(program.num_staged_facts(), 0);
    EXPECT_EQ(program.rules().size(), rules);
    EXPECT_EQ(edge->num_rows(), rows);
    EXPECT_EQ(service.durability_stats().wal_records, wal.wal_records);
    EXPECT_EQ(service.durability_stats().wal_bytes, wal.wal_bytes);
    EXPECT_EQ(std::filesystem::file_size(segments[0].path), segment_bytes);
    EXPECT_EQ(Flatten(service.Query("?- tc(a0, Y).")), before);
    // The log stays poisoned: a later update fails the same way.
    EXPECT_FALSE(service.Update("edge(a5, a6).").status.ok());
    EXPECT_EQ(program.num_staged_facts(), 0);
    EXPECT_EQ(edge->num_rows(), rows);
  }
  {
    QueryService recovered;
    DurabilityOptions options;
    options.data_dir = dir;
    options.wal.sync = WalSyncPolicy::kNone;
    ASSERT_TRUE(recovered.EnableDurability(options).ok());
    EXPECT_EQ(Flatten(recovered.Query("?- tc(a0, Y).")), before);
  }
  std::filesystem::remove_all(dir);
}

TEST(ServiceTest, CsvLoadIntoAnIdbPredicateInvalidatesItsCachedQuery) {
  QueryService service;
  ASSERT_TRUE(service
                  .Update("e(c, d).\np(X, Y) :- e(X, Y).\n"
                          "p(X, Y) :- e(X, Z), p(Z, Y).\n")
                  .status.ok());
  EXPECT_EQ(Flatten(service.Query("?- p(a, Y).")), "");
  const std::string csv = StrCat(::testing::TempDir(), "cs_idb_csv_",
                                 ::getpid(), ".csv");
  std::ofstream(csv) << "a,b\n";
  ASSERT_TRUE(service.LoadCsv("p", 2, csv).ok());
  std::remove(csv.c_str());
  QueryResponse after = service.Query("?- p(a, Y).");
  EXPECT_FALSE(after.result_cache_hit);
  EXPECT_EQ(Flatten(after), "b;");
}

TEST(ServiceTest, CsvLoadRejectsAnArityBelowOne) {
  const std::string tag = StrCat("cs_csv_arity_", ::getpid());
  const std::string dir = StrCat(::testing::TempDir(), tag);
  const std::string csv = StrCat(::testing::TempDir(), tag, ".csv");
  std::filesystem::remove_all(dir);
  std::ofstream(csv) << "a,b\n";
  {
    QueryService service;
    DurabilityOptions durability;
    durability.data_dir = dir;
    durability.wal.sync = WalSyncPolicy::kNone;
    ASSERT_TRUE(service.EnableDurability(durability).ok());
    const int64_t preds = service.db().program().preds().size();
    for (int arity : {0, -1}) {
      StatusOr<int64_t> loaded = service.LoadCsv("p", arity, csv);
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
          << "arity " << arity;
    }
    EXPECT_EQ(service.db().program().preds().size(), preds);
    EXPECT_EQ(service.durability_stats().wal_records, 0);
  }
  std::remove(csv.c_str());
  std::filesystem::remove_all(dir);
}

TEST(ServiceTest, RuleUpdateDropsResultCache) {
  QueryService service;
  SeedChain(&service, 5);
  ASSERT_TRUE(service.Query("?- tc(a0, Y).").status.ok());
  EXPECT_TRUE(service.Query("?- tc(a0, Y).").result_cache_hit);
  const uint64_t epoch = service.rules_epoch();

  // A new rule makes every node reach itself-via-loop; cached results
  // must not survive.
  UpdateResponse rule = service.Update("tc(X, X) :- edge(X, Y).\n");
  ASSERT_TRUE(rule.status.ok());
  EXPECT_EQ(rule.new_rules, 1);
  EXPECT_GT(service.rules_epoch(), epoch);

  QueryResponse after = service.Query("?- tc(a0, Y).");
  EXPECT_FALSE(after.result_cache_hit);
  EXPECT_EQ(after.rows.size(), 6u);  // a0..a5: the loop rule adds a0
}

/// scsg over 60 people in a binary family tree (p<i>'s parent is
/// p<(i-1)/2>, the two children of a parent are siblings), with one
/// same_country row per person: same_country(p<i>, p<i>).
std::string ScsgPeople() {
  std::string text =
      "scsg(X, Y) :- sibling(X, Y).\n"
      "scsg(X, Y) :- parent(X, X1), same_country(X1, Y1), parent(Y, Y1),\n"
      "              scsg(X1, Y1).\n";
  for (int i = 0; i < 60; ++i) {
    if (i > 0) text += StrCat("parent(p", i, ", p", (i - 1) / 2, ").\n");
    if (i % 2 == 1 && i + 1 < 60) {
      text += StrCat("sibling(p", i, ", p", i + 1, ").\n");
      text += StrCat("sibling(p", i + 1, ", p", i, ").\n");
    }
    text += StrCat("same_country(p", i, ", p", i, ").\n");
  }
  return text;
}

/// The other 3,540 same_country pairs: everyone shares one country.
std::string ScsgOneCountry() {
  std::string text;
  for (int i = 0; i < 60; ++i) {
    for (int j = 0; j < 60; ++j) {
      if (i != j) text += StrCat("same_country(p", i, ", p", j, ").\n");
    }
  }
  return text;
}

std::vector<std::vector<std::string>> SortedRows(const QueryResponse& r) {
  std::vector<std::vector<std::string>> rows = r.rows;
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(ServiceTest, SplitDecisionFollowsFactLoads) {
  // Alg. 3.1 decides from the data: one same_country row per person
  // gives the linkage an expansion ratio of 1 (follow the chain); after
  // the load it is 60, above the split threshold.
  QueryService service;
  ASSERT_TRUE(service.Update(ScsgPeople()).status.ok());
  QueryResponse before = service.Query("?- scsg(p40, Y).");
  ASSERT_TRUE(before.status.ok()) << before.status;
  EXPECT_EQ(before.technique, Technique::kMagicSets) << before.plan;

  UpdateResponse load = service.Update(ScsgOneCountry());
  ASSERT_TRUE(load.status.ok()) << load.status;
  EXPECT_EQ(load.new_facts, 3540);

  QueryResponse after = service.Query("?- scsg(p41, Y).");
  ASSERT_TRUE(after.status.ok()) << after.status;
  EXPECT_EQ(after.technique, Technique::kChainSplitMagic) << after.plan;

  QueryService fresh;
  ASSERT_TRUE(fresh.Update(ScsgPeople() + ScsgOneCountry()).status.ok());
  QueryResponse reference = fresh.Query("?- scsg(p41, Y).");
  ASSERT_TRUE(reference.status.ok()) << reference.status;
  EXPECT_EQ(after.technique, reference.technique);
  EXPECT_FALSE(after.rows.empty());
  EXPECT_EQ(SortedRows(after), SortedRows(reference));
}

/// The plan's "technique: ..." line, which names the number of
/// transformed rules.
std::string TechniqueLine(const std::string& plan) {
  size_t start = plan.find("technique: ");
  if (start == std::string::npos) return "";
  return plan.substr(start, plan.find('\n', start) - start);
}

TEST(ServiceTest, EveryQueryCompilesBoundedRecursion) {
  // sym is a permutation-bounded linear recursion: each query of the
  // shape sym(b, Y) is unfolded before magic sets run, not only the
  // first one the service sees.
  QueryService service;
  std::string text =
      "sym(X, Y) :- base(X, Y).\n"
      "sym(X, Y) :- link(X), sym(Y, X).\n";
  for (int i = 0; i < 20; ++i) {
    text += StrCat("base(b", i, ", b", i + 1, ").\n");
    if (i % 2 == 0) text += StrCat("link(b", i, ").\n");
  }
  ASSERT_TRUE(service.Update(text).status.ok());

  QueryResponse first = service.Query("?- sym(b12, Y).");
  QueryResponse second = service.Query("?- sym(b14, Y).");
  for (const QueryResponse* response : {&first, &second}) {
    ASSERT_TRUE(response->status.ok()) << response->status;
    EXPECT_NE(response->plan.find("bounded recursion: unfolded"),
              std::string::npos)
        << response->plan;
  }
  EXPECT_NE(TechniqueLine(first.plan).find("transformed rules"),
            std::string::npos)
      << first.plan;
  EXPECT_EQ(TechniqueLine(second.plan), TechniqueLine(first.plan));
}

TEST(ServiceTest, CachedEqualsUncachedOnGraphWorkload) {
  QueryService cached;
  QueryService uncached;
  for (QueryService* service : {&cached, &uncached}) {
    GraphOptions graph;
    graph.num_nodes = 60;
    graph.num_edges = 150;
    graph.seed = 7;
    GenerateGraph(&service->db(), "edge", graph);
    UpdateResponse rules = service->Update(kTcProgram);
    ASSERT_TRUE(rules.status.ok());
  }
  RequestOptions bypass;
  bypass.bypass_cache = true;
  for (int round = 0; round < 3; ++round) {
    for (int n = 0; n < 60; n += 6) {
      std::string query = StrCat("?- tc(n", n, ", Y).");
      QueryResponse hot = cached.Query(query);
      QueryResponse cold = uncached.Query(query, bypass);
      ASSERT_TRUE(hot.status.ok()) << hot.status;
      ASSERT_TRUE(cold.status.ok()) << cold.status;
      // Byte-identical formatted answer sets.
      ASSERT_EQ(Flatten(hot), Flatten(cold)) << query;
    }
  }
  EXPECT_GT(cached.stats().result_cache_hits, 0);
  EXPECT_EQ(uncached.stats().result_cache_hits, 0);
}

TEST(ServiceTest, DeadlineExceededReturnsPartialStats) {
  QueryService service;
  // A long chain with a hub fan-out makes tc(a0, Y) expensive enough
  // to trip a microscopic deadline.
  std::string text = kTcProgram;
  for (int i = 0; i < 400; ++i) {
    text += StrCat("edge(b", i, ", b", i + 1, ").\n");
    text += StrCat("edge(a0, b", i, ").\n");
  }
  ASSERT_TRUE(service.Update(text).status.ok());

  // Grow the deadline until an attempt both trips it and got through
  // at least one evaluator iteration: on a fast machine 1ms already
  // does, under tsan's slowdown 1ms expires before the first fixpoint
  // iteration completes (all-zero partial stats).
  RequestOptions request;
  QueryResponse response;
  bool tripped = false;
  bool completed = false;
  for (int ms = 1; ms <= 1024; ms *= 2) {
    request.deadline = std::chrono::milliseconds(ms);
    QueryResponse attempt = service.Query("?- tc(a0, Y).", request);
    if (attempt.status.ok()) {
      // Finished inside the budget; every larger budget would too.
      completed = true;
      break;
    }
    tripped = true;
    response = attempt;
    if (response.seminaive_stats.iterations + response.topdown_stats.steps +
            response.buffered_stats.levels >
        0) {
      break;
    }
  }
  ASSERT_TRUE(tripped) << "deadline never tripped";
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  // Partial work is reported: the evaluator got through some
  // iterations (or SLD steps) before the cutoff.
  EXPECT_GT(response.seminaive_stats.iterations +
                response.topdown_stats.steps +
                response.buffered_stats.levels,
            0);
  EXPECT_FALSE(response.plan.empty());
  EXPECT_GT(service.stats().deadline_exceeded, 0);

  // The deadline failures were not cached; a deadline-free retry
  // succeeds (from the cache only if some attempt already completed).
  QueryResponse retry = service.Query("?- tc(a0, Y0).");
  EXPECT_TRUE(retry.status.ok()) << retry.status;
  if (!completed) {
    EXPECT_FALSE(retry.result_cache_hit);
  }
}

TEST(ServiceTest, PreCancelledTokenReturnsCancelled) {
  QueryService service;
  SeedChain(&service, 10);
  CancelToken token;
  token.Cancel();
  RequestOptions request;
  request.cancel = &token;
  QueryResponse response = service.Query("?- tc(a0, Y).", request);
  EXPECT_EQ(response.status.code(), StatusCode::kCancelled);
  EXPECT_GT(service.stats().cancelled, 0);
}

TEST(ServiceTest, ConcurrentReadersWithWriterStayConsistent) {
  QueryService service;
  SeedChain(&service, 30);

  // Warm the cache, then hammer it from reader threads while a writer
  // extends the chain; readers must always see either the old or the
  // new consistent answer set, never a torn one.
  QueryResponse warm = service.Query("?- tc(a0, Y).");
  ASSERT_TRUE(warm.status.ok());
  const size_t base_answers = warm.rows.size();

  std::atomic<bool> stop{false};
  std::atomic<int64_t> reads{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        QueryResponse response = service.Query("?- tc(a0, Y).");
        if (!response.status.ok() ||
            response.rows.size() < base_answers ||
            response.rows.size() > base_answers + 8) {
          failures.fetch_add(1);
        }
        reads.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 8; ++i) {
    UpdateResponse update =
        service.Update(StrCat("edge(a", 30 + i, ", a", 31 + i, ").\n"));
    if (!update.status.ok()) failures.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reads.load(), 0);
  // The final answer set reflects all 8 new edges.
  QueryResponse final_response = service.Query("?- tc(a0, Y).");
  ASSERT_TRUE(final_response.status.ok());
  EXPECT_EQ(final_response.rows.size(), base_answers + 8);
}

TEST(ServiceTest, BatchDriverReportsThroughputAndHitRate) {
  QueryService service;
  SeedChain(&service, 40);
  std::vector<BatchOp> ops;
  for (int i = 0; i < 4; ++i) {
    ops.push_back({BatchOp::Kind::kQuery, StrCat("?- tc(a", i, ", Y).")});
  }
  BatchOptions options;
  options.num_clients = 4;
  options.ops_per_client = 25;
  BatchReport report = RunBatchWorkload(&service, ops, options);
  EXPECT_EQ(report.queries, 100);
  EXPECT_EQ(report.errors, 0);
  EXPECT_GT(report.qps, 0);
  EXPECT_GT(report.answer_rows, 0);
  EXPECT_GE(report.p99_ms, report.p50_ms);
  // 4 distinct queries, 100 lookups: almost everything after the first
  // round hits.
  EXPECT_GT(report.result_hit_rate, 0.9);
}

TEST(ServiceTest, RuleUpdateBetweenEvalAndInsertSkipsResultCache) {
  // Regression for the epoch revalidation at the result-cache Put: a
  // rule update landing after evaluation released the db lock but
  // before the insert has already cleared the cache — the insert must
  // be skipped, not resurrect pre-update answers into the post-update
  // cache. The interleaving is forced with the before-Put test hook.
  QueryService service;
  SeedChain(&service, 10);
  int hook_runs = 0;
  service.TestOnlySetBeforeResultPutHook([&service, &hook_runs] {
    ++hook_runs;
    UpdateResponse update = service.Update("tc2(X, Y) :- edge(X, Y).\n");
    ASSERT_TRUE(update.status.ok()) << update.status;
  });
  QueryResponse first = service.Query("?- tc(a0, Y).");
  ASSERT_TRUE(first.status.ok()) << first.status;
  EXPECT_EQ(hook_runs, 1);
  EXPECT_EQ(service.stats().result_cache_stale_skips, 1);

  service.TestOnlySetBeforeResultPutHook(nullptr);
  // Nothing was inserted: the repeat query is a miss, answers intact.
  QueryResponse second = service.Query("?- tc(a0, Y).");
  ASSERT_TRUE(second.status.ok());
  EXPECT_FALSE(second.result_cache_hit);
  EXPECT_EQ(Flatten(second), Flatten(first));
  // With the writer gone, caching works again.
  QueryResponse third = service.Query("?- tc(a0, Y).");
  EXPECT_TRUE(third.result_cache_hit);
}

TEST(ServiceTest, BottomUpQueryReportsSccStrata) {
  QueryService service;
  SeedChain(&service, 30);
  QueryResponse response = service.Query("?- tc(a0, Y).");
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_FALSE(response.result_cache_hit);
  EXPECT_EQ(response.rows.size(), 30u);
  EXPECT_GE(response.scc_strata, 1);

  ServiceStats stats = service.stats();
  EXPECT_GE(stats.scc_schedules, 1);
  EXPECT_GE(stats.scc_strata, stats.scc_schedules);
}

}  // namespace
}  // namespace chainsplit
