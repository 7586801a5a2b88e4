// Snapshot-isolated evaluation: the shared-lock overlay path must be
// answer-for-answer identical to EvaluateQuery run directly on an
// identically seeded private Database (the pre-overlay semantics,
// where derived relations land in the base) and must leave the base
// database untouched — no new base relations, no version bumps,
// regardless of technique.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "common/strings.h"
#include "core/planner.h"
#include "service/query_service.h"
#include "workload/graph_gen.h"

namespace chainsplit {
namespace {

constexpr const char* kTcProgram =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
    "rtc(X, Y) :- edge(Y, X).\n"
    "rtc(X, Y) :- edge(Z, X), rtc(Z, Y).\n"
    "sg(X, Y) :- edge(P, X), edge(P, Y).\n";

void SeedGraph(Database* db) {
  GraphOptions graph;
  graph.num_nodes = 60;
  graph.num_edges = 150;
  graph.acyclic = true;
  graph.seed = 17;
  GenerateGraph(db, "edge", graph);
}

void Seed(QueryService* service) {
  SeedGraph(&service->db());
  UpdateResponse rules = service->Update(kTcProgram);
  ASSERT_TRUE(rules.status.ok()) << rules.status;
}

std::vector<std::string> Queries() {
  std::vector<std::string> queries;
  for (int i = 0; i < 12; ++i) {
    queries.push_back(StrCat("?- tc(n", i * 3, ", Y)."));
    queries.push_back(StrCat("?- rtc(n", i * 3 + 1, ", Y)."));
  }
  queries.push_back("?- sg(n5, Y).");
  queries.push_back("?- tc(X, n40).");
  return queries;
}

std::string Flatten(const QueryResponse& response) {
  std::string flat;
  for (const std::vector<std::string>& row : response.rows) {
    flat += StrJoin(row, ",");
    flat += ";";
  }
  return flat;
}

/// The reference answers of `text`: EvaluateQuery on a private,
/// identically seeded Database, flattened like Flatten().
std::string ReferenceAnswers(const std::string& text) {
  Database db;
  SeedGraph(&db);
  Status rules = ParseProgram(kTcProgram, &db.program());
  EXPECT_TRUE(rules.ok()) << rules;
  StatusOr<Query> query = ParseQueryOnly(text, &db.program());
  EXPECT_TRUE(query.ok()) << text << ": " << query.status();
  if (!query.ok()) return "";
  StatusOr<QueryResult> result = EvaluateQuery(&db, *query);
  EXPECT_TRUE(result.ok()) << text << ": " << result.status();
  if (!result.ok()) return "";
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

/// Sorted (pred, version) snapshot of every base relation.
std::vector<std::pair<PredId, uint64_t>> BaseSnapshot(Database* db) {
  std::vector<std::pair<PredId, uint64_t>> snapshot;
  for (PredId pred : db->StoredPredicates()) {
    snapshot.emplace_back(pred, db->GetRelation(pred)->version());
  }
  std::sort(snapshot.begin(), snapshot.end());
  return snapshot;
}

TEST(ServiceOverlayTest, OverlayMatchesReferenceAndBaseStaysFrozen) {
  QueryService service;
  Seed(&service);
  const std::vector<std::pair<PredId, uint64_t>> before =
      BaseSnapshot(&service.db());
  ASSERT_FALSE(before.empty());

  // Every answer byte-identical to the reference, and the base checked
  // after every query — the overlay must never leak into it.
  RequestOptions overlay;
  overlay.bypass_cache = true;
  const std::vector<std::string> queries = Queries();
  for (const std::string& text : queries) {
    QueryResponse r = service.Query(text, overlay);
    ASSERT_TRUE(r.status.ok()) << text << ": " << r.status;
    EXPECT_EQ(Flatten(r), ReferenceAnswers(text)) << text;
    EXPECT_EQ(BaseSnapshot(&service.db()), before) << text;
  }

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shared_evals, static_cast<int64_t>(queries.size()));
  EXPECT_EQ(stats.exclusive_evals, 0);
  EXPECT_GT(stats.overlay_relations, 0);
  EXPECT_GT(stats.overlay_bytes, 0);
}

TEST(ServiceOverlayTest, CachedPathMatchesOverlayReference) {
  QueryService service;
  Seed(&service);
  RequestOptions bypass;
  bypass.bypass_cache = true;
  for (const std::string& text : Queries()) {
    QueryResponse reference = service.Query(text, bypass);
    QueryResponse fill = service.Query(text);
    QueryResponse hit = service.Query(text);
    ASSERT_TRUE(reference.status.ok()) << reference.status;
    ASSERT_TRUE(fill.status.ok()) << fill.status;
    ASSERT_TRUE(hit.status.ok()) << hit.status;
    EXPECT_TRUE(hit.result_cache_hit) << text;
    EXPECT_EQ(Flatten(fill), Flatten(reference)) << text;
    EXPECT_EQ(Flatten(hit), Flatten(reference)) << text;
  }
}

TEST(ServiceOverlayTest, OverlayAnswersSeeFreshFacts) {
  // A fact write between two uncached overlay queries must be visible
  // to the second one (the overlay snapshots at query start, not at
  // service construction).
  QueryService service;
  UpdateResponse seeded = service.Update(
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
      "edge(a, b).\n");
  ASSERT_TRUE(seeded.status.ok()) << seeded.status;

  RequestOptions bypass;
  bypass.bypass_cache = true;
  QueryResponse first = service.Query("?- tc(a, Y).", bypass);
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(first.rows.size(), 1u);

  UpdateResponse grown = service.Update("edge(b, c).\n");
  ASSERT_TRUE(grown.status.ok());
  QueryResponse second = service.Query("?- tc(a, Y).", bypass);
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.rows.size(), 2u);
}

}  // namespace
}  // namespace chainsplit
