#include "service/batch_driver.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace chainsplit {

BatchReport RunBatchWorkload(QueryService* service,
                             const std::vector<BatchOp>& ops,
                             const BatchOptions& options) {
  BatchReport report;
  if (ops.empty() || options.num_clients <= 0 ||
      options.ops_per_client <= 0) {
    return report;
  }
  using Clock = std::chrono::steady_clock;

  struct ClientResult {
    std::vector<double> latencies_ms;
    int64_t queries = 0;
    int64_t updates = 0;
    int64_t errors = 0;
    int64_t answer_rows = 0;
  };
  std::vector<ClientResult> clients(options.num_clients);

  const ServiceStats before = service->stats();
  std::vector<std::jthread> threads;
  threads.reserve(options.num_clients);
  const Clock::time_point start = Clock::now();
  for (int c = 0; c < options.num_clients; ++c) {
    threads.emplace_back([service, &ops, &options, &clients, c] {
      ClientResult& mine = clients[c];
      mine.latencies_ms.reserve(options.ops_per_client);
      for (int i = 0; i < options.ops_per_client; ++i) {
        const BatchOp& op = ops[(c + i) % ops.size()];
        const Clock::time_point t0 = Clock::now();
        if (op.kind == BatchOp::Kind::kQuery) {
          QueryResponse response = service->Query(op.text, options.request);
          ++mine.queries;
          if (!response.status.ok()) ++mine.errors;
          mine.answer_rows += static_cast<int64_t>(response.rows.size());
        } else {
          UpdateResponse response = service->Update(op.text, options.request);
          ++mine.updates;
          if (!response.status.ok()) ++mine.errors;
        }
        mine.latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count());
      }
    });
  }
  for (std::jthread& thread : threads) thread.join();
  report.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<double> latencies;
  for (const ClientResult& client : clients) {
    report.queries += client.queries;
    report.updates += client.updates;
    report.errors += client.errors;
    report.answer_rows += client.answer_rows;
    latencies.insert(latencies.end(), client.latencies_ms.begin(),
                     client.latencies_ms.end());
  }
  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) {
    report.p50_ms = latencies[latencies.size() / 2];
    report.p99_ms = latencies[std::min(latencies.size() - 1,
                                       latencies.size() * 99 / 100)];
  }
  if (report.seconds > 0) {
    report.qps =
        static_cast<double>(report.queries + report.updates) / report.seconds;
  }

  const ServiceStats after = service->stats();
  const int64_t result_lookups =
      (after.result_cache_hits - before.result_cache_hits) +
      (after.result_cache_misses - before.result_cache_misses);
  if (result_lookups > 0) {
    report.result_hit_rate =
        static_cast<double>(after.result_cache_hits -
                            before.result_cache_hits) /
        static_cast<double>(result_lookups);
  }
  return report;
}

}  // namespace chainsplit
