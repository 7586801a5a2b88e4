#ifndef CHAINSPLIT_SERVICE_BATCH_DRIVER_H_
#define CHAINSPLIT_SERVICE_BATCH_DRIVER_H_

#include <string>
#include <vector>

#include "service/query_service.h"

namespace chainsplit {

/// In-process multi-client workload replay against a QueryService —
/// the driver behind bench_service_throughput and the concurrency
/// tests. Each simulated client runs the shared op list round-robin,
/// starting at its own offset, timing every op.
struct BatchOp {
  enum class Kind { kQuery, kUpdate };
  Kind kind = Kind::kQuery;
  std::string text;
};

struct BatchOptions {
  int num_clients = 8;
  /// Each client executes `ops_per_client` ops (cycling through the
  /// workload's op list).
  int ops_per_client = 100;
  RequestOptions request;
};

struct BatchReport {
  int64_t queries = 0;
  int64_t updates = 0;
  int64_t errors = 0;
  /// Total answer rows over all query ops (work sanity check).
  int64_t answer_rows = 0;
  double seconds = 0;
  double qps = 0;  // query+update ops per second, wall clock
  double p50_ms = 0;
  double p99_ms = 0;
  /// Result-cache hit fraction over this run (delta of the service
  /// counters), in [0, 1].
  double result_hit_rate = 0;
};

/// Runs `ops` with `options.num_clients` concurrent clients, one
/// thread each; blocks until every client finishes.
BatchReport RunBatchWorkload(QueryService* service,
                             const std::vector<BatchOp>& ops,
                             const BatchOptions& options);

}  // namespace chainsplit

#endif  // CHAINSPLIT_SERVICE_BATCH_DRIVER_H_
