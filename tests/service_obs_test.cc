// QueryService observability: the metrics registry as the single
// source of truth behind stats(), per-outcome request counters,
// latency histogram consistency, the tracing toggle + `last trace`
// JSON (per-iteration fixpoint spans), and the slow-query log.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "service/query_service.h"

namespace chainsplit {
namespace {

namespace fs = std::filesystem;

constexpr const char* kTcProgram =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n";

void SeedChain(QueryService* service, int length) {
  std::string text = kTcProgram;
  for (int i = 0; i < length; ++i) {
    text += StrCat("edge(a", i, ", a", i + 1, ").\n");
  }
  UpdateResponse seeded = service->Update(text);
  ASSERT_TRUE(seeded.status.ok()) << seeded.status;
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

double SampleValue(const std::vector<MetricSample>& samples,
                   const std::string& name, const MetricLabels& labels = {}) {
  for (const MetricSample& sample : samples) {
    if (sample.name == name && sample.labels == labels) return sample.value;
  }
  ADD_FAILURE() << "sample not found: " << name;
  return -1;
}

TEST(ServiceObsTest, StatsIsAViewOverTheRegistry) {
  QueryService service;
  SeedChain(&service, 10);
  ASSERT_TRUE(service.Query("?- tc(a0, Y).").status.ok());
  ASSERT_TRUE(service.Query("?- tc(a0, Y).").status.ok());  // cache hit

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, 2);
  EXPECT_EQ(stats.updates, 1);
  EXPECT_EQ(stats.result_cache_hits, 1);
  EXPECT_EQ(stats.result_cache_misses, 1);

  // The same numbers, read straight off the registry.
  std::vector<MetricSample> samples = service.metrics()->Snapshot();
  EXPECT_DOUBLE_EQ(SampleValue(samples, "csdd_queries_total"), 2.0);
  EXPECT_DOUBLE_EQ(SampleValue(samples, "csdd_updates_total"), 1.0);
  EXPECT_DOUBLE_EQ(SampleValue(samples, "csdd_result_cache_lookups_total",
                               {{"result", "hit"}}),
                   1.0);
  EXPECT_DOUBLE_EQ(SampleValue(samples, "csdd_result_cache_lookups_total",
                               {{"result", "miss"}}),
                   1.0);
}

TEST(ServiceObsTest, LatencyHistogramCountsEveryQuery) {
  QueryService service;
  SeedChain(&service, 5);
  const int kQueries = 7;
  for (int i = 0; i < kQueries; ++i) {
    service.Query("?- tc(a0, Y).");
  }
  std::vector<MetricSample> samples = service.metrics()->Snapshot();
  EXPECT_DOUBLE_EQ(SampleValue(samples, "csdd_query_latency_us_count"),
                   static_cast<double>(kQueries));
  EXPECT_GE(SampleValue(samples, "csdd_query_latency_us_sum"), 0.0);
}

TEST(ServiceObsTest, OutcomeFamilyReconcilesWithRequestTotals) {
  QueryService service;
  SeedChain(&service, 5);
  ASSERT_TRUE(service.Query("?- tc(a0, Y).").status.ok());
  // A parse failure is still one request, counted under outcome=error.
  EXPECT_FALSE(service.Query("?- tc(a0 Y.").status.ok());
  ASSERT_TRUE(service.Update("edge(x, y).").status.ok());

  // SeedChain's Update counts too: three ok requests, one error.
  std::vector<MetricSample> samples = service.metrics()->Snapshot();
  EXPECT_DOUBLE_EQ(
      SampleValue(samples, "csdd_requests_total", {{"outcome", "ok"}}), 3.0);
  EXPECT_DOUBLE_EQ(
      SampleValue(samples, "csdd_requests_total", {{"outcome", "error"}}),
      1.0);
  // Family total == every top-level request (queries + updates).
  EXPECT_DOUBLE_EQ(
      service.metrics()->CounterFamilyTotal("csdd_requests_total"), 4.0);
}

TEST(ServiceObsTest, DeadlineOutcomeIsCounted) {
  QueryService service;
  SeedChain(&service, 400);
  RequestOptions request;
  request.deadline = std::chrono::milliseconds(1);
  request.bypass_cache = true;
  // Retry until the deadline actually fires (a fast machine may finish
  // a short chain in under a millisecond — the long chain makes that
  // effectively impossible, but stay robust).
  StatusCode code = StatusCode::kOk;
  for (int i = 0; i < 50 && code != StatusCode::kDeadlineExceeded; ++i) {
    code = service.Query("?- tc(a0, Y).", request).status.code();
  }
  ASSERT_EQ(code, StatusCode::kDeadlineExceeded);
  std::vector<MetricSample> samples = service.metrics()->Snapshot();
  EXPECT_GE(SampleValue(samples, "csdd_requests_total",
                        {{"outcome", "deadline_exceeded"}}),
            1.0);
  EXPECT_GE(SampleValue(samples, "csdd_evals_cut_total",
                        {{"cause", "deadline_exceeded"}}),
            1.0);
}

TEST(ServiceObsTest, RenderPrometheusCoversAllSubsystems) {
  QueryService service;
  SeedChain(&service, 10);
  service.Query("?- tc(a0, Y).");
  std::string text = service.metrics()->RenderPrometheus();
  // Service, cache, evaluator and storage families all present.
  EXPECT_TRUE(Contains(text, "# TYPE csdd_queries_total counter"));
  EXPECT_TRUE(Contains(text, "csdd_result_cache_lookups_total{result=\"miss\"} 1"));
  EXPECT_TRUE(Contains(text, "# TYPE csdd_query_latency_us histogram"));
  EXPECT_TRUE(Contains(text, "csdd_query_latency_us_bucket{le=\"+Inf\"} 1"));
  EXPECT_TRUE(Contains(text, "csdd_query_latency_us_quantile{quantile=\"0.95\"}"));
  EXPECT_TRUE(Contains(text, "csdd_evals_total{lock=\"shared\"} 1"));
  EXPECT_TRUE(Contains(text, "csdd_fixpoint_iterations_total"));
  EXPECT_TRUE(Contains(text, "csdd_storage_relations"));
  EXPECT_TRUE(Contains(text, "csdd_storage_rows"));
}

TEST(ServiceObsTest, TracingRecordsFixpointIterations) {
  QueryService service;
  SeedChain(&service, 10);
  EXPECT_FALSE(service.tracing());
  EXPECT_EQ(service.last_trace_json(), "");

  service.set_tracing(true);
  RequestOptions request;
  request.bypass_cache = true;  // force a full uncached evaluation
  ASSERT_TRUE(service.Query("?- tc(a0, Y).", request).status.ok());

  std::string json = service.last_trace_json();
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(Contains(json, "{\"traceEvents\":["));
  EXPECT_TRUE(Contains(json, "\"?- tc(a0, Y).\""));
  EXPECT_TRUE(Contains(json, "\"parse\""));
  EXPECT_TRUE(Contains(json, "\"evaluate\""));
  // The acceptance shape: per-iteration fixpoint spans carrying delta
  // sizes for a recursive query.
  EXPECT_TRUE(Contains(json, "\"fixpoint_iteration\""));
  EXPECT_TRUE(Contains(json, "\"delta_rows\":"));
  EXPECT_TRUE(Contains(json, "\"derived\":"));

  service.set_tracing(false);
  EXPECT_FALSE(service.tracing());
}

TEST(ServiceObsTest, CallerSuppliedTraceWins) {
  QueryService service;
  SeedChain(&service, 5);
  Trace trace("caller");
  RequestOptions request;
  request.trace = &trace;
  request.bypass_cache = true;
  ASSERT_TRUE(service.Query("?- tc(a0, Y).", request).status.ok());
  // The service instrumented the caller's trace (root + spans) and did
  // not publish it as `last` (tracing is off).
  EXPECT_GT(trace.num_spans(), 3);
  EXPECT_TRUE(Contains(trace.ToChromeJson(), "\"evaluate\""));
  EXPECT_EQ(service.last_trace_json(), "");
}

// Sums integer attribute `key` over the spans named `span` in a Chrome
// trace JSON (every event is {"name":"...",...,"args":{...}}).
int64_t SumSpanAttr(const std::string& json, const std::string& span,
                    const std::string& key) {
  const std::string name = "{\"name\":\"" + span + "\"";
  const std::string attr = "\"" + key + "\":";
  int64_t sum = 0;
  for (size_t at = json.find(name); at != std::string::npos;
       at = json.find(name, at + 1)) {
    const size_t end = json.find("}}", at);
    const size_t found = json.find(attr, at);
    if (found < end) sum += std::stoll(json.substr(found + attr.size()));
  }
  return sum;
}

TEST(ServiceObsTest, FixpointSpansAddUpToTheEvaluatorCounters) {
  QueryService service;
  SeedChain(&service, 8);
  Trace trace("q");
  RequestOptions request;
  request.trace = &trace;
  request.bypass_cache = true;
  QueryResponse response = service.Query("?- tc(a2, Y).", request);
  ASSERT_TRUE(response.status.ok()) << response.status;
  const std::string json = trace.ToChromeJson();
  // Magic sets evaluate the magic stratum and the tc stratum, each with
  // its own init round; both rounds count, as every iteration does.
  const SemiNaiveStats& stats = response.seminaive_stats;
  ASSERT_GT(stats.counters.tuples_considered, 0);
  EXPECT_GT(SumSpanAttr(json, "fixpoint_init", "tuples_considered"), 0);
  const std::pair<const char*, int64_t> totals[] = {
      {"tuples_considered", stats.counters.tuples_considered},
      {"derivations", stats.counters.derivations},
      {"derived", stats.total_derived}};
  for (const auto& [key, want] : totals) {
    EXPECT_EQ(SumSpanAttr(json, "fixpoint_init", key) +
                  SumSpanAttr(json, "fixpoint_iteration", key),
              want)
        << key;
  }
}

TEST(ServiceObsTest, UntracedQueriesLeaveNoTrace) {
  QueryService service;
  SeedChain(&service, 5);
  ASSERT_TRUE(service.Query("?- tc(a0, Y).").status.ok());
  EXPECT_EQ(service.last_trace_json(), "");
}

class SlowLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            StrCat("cs_slowlog_test_", ::getpid(), "_",
                   ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(SlowLogTest, RecordsOnlyOverThreshold) {
  SlowQueryLog log(dir_, std::chrono::milliseconds(10));
  ASSERT_TRUE(log.enabled());

  Trace fast("fast");
  fast.Finish();
  StatusOr<std::string> under =
      log.Record(fast, std::chrono::microseconds(5000));
  ASSERT_TRUE(under.ok()) << under.status();
  EXPECT_EQ(*under, "");
  EXPECT_EQ(log.queries_logged(), 0);
  // Under-threshold traffic must not even create the directory.
  EXPECT_FALSE(fs::exists(dir_));

  Trace slow("?- tc(a0, Y).");
  slow.Finish();
  StatusOr<std::string> over =
      log.Record(slow, std::chrono::microseconds(25000));
  ASSERT_TRUE(over.ok()) << over.status();
  ASSERT_NE(*over, "");
  EXPECT_EQ(log.queries_logged(), 1);
  EXPECT_TRUE(Contains(*over, "25ms.json"));

  // The file is loadable Chrome trace JSON.
  std::ifstream in(*over);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_TRUE(Contains(content.str(), "{\"traceEvents\":["));
  EXPECT_TRUE(Contains(content.str(), "\"?- tc(a0, Y).\""));
}

TEST_F(SlowLogTest, ZeroThresholdDisables) {
  SlowQueryLog log(dir_, std::chrono::milliseconds(0));
  EXPECT_FALSE(log.enabled());
  Trace trace("q");
  trace.Finish();
  StatusOr<std::string> result =
      log.Record(trace, std::chrono::microseconds(1000000));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, "");
  EXPECT_FALSE(fs::exists(dir_));
}

TEST_F(SlowLogTest, ServiceWritesSlowQueryFiles) {
  QueryService service;
  SeedChain(&service, 10);
  // Threshold 0ms is "disabled", so arm via the service with 1ms and
  // verify the wiring with a query forced slow enough by a long chain;
  // to stay deterministic, drive the log through every query with the
  // threshold at the minimum and only require non-negative counts.
  service.EnableSlowQueryLog(dir_, std::chrono::milliseconds(1));
  for (int i = 0; i < 3; ++i) {
    RequestOptions request;
    request.bypass_cache = true;
    ASSERT_TRUE(service.Query("?- tc(a0, Y).", request).status.ok());
  }
  // Timing-dependent: a fast machine may evaluate under 1ms, so only
  // the consistency between the counter and the directory is asserted.
  int64_t logged = service.slow_queries_logged();
  EXPECT_GE(logged, 0);
  int64_t files = 0;
  if (fs::exists(dir_)) {
    for (const auto& entry : fs::directory_iterator(dir_)) {
      ++files;
      std::ifstream in(entry.path());
      std::stringstream content;
      content << in.rdbuf();
      EXPECT_TRUE(Contains(content.str(), "{\"traceEvents\":["));
    }
  }
  EXPECT_EQ(files, logged);
}

}  // namespace
}  // namespace chainsplit
