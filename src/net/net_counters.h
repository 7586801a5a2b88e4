#ifndef CHAINSPLIT_NET_NET_COUNTERS_H_
#define CHAINSPLIT_NET_NET_COUNTERS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace chainsplit {

/// Front-end telemetry of the TCP server's epoll engine, surfaced by
/// the `:net` command and the network benches. Counters are relaxed
/// atomics — they are monotone tallies (plus two gauges), not
/// synchronization; exact cross-field consistency is not promised.
///
/// The configuration fields (`mode`, `workers`, `queue_capacity`) are
/// written once before serving starts and read-only afterwards.
struct NetCounters {
  std::string mode = "none";
  int workers = 0;
  int64_t queue_capacity = 0;

  /// Connections accepted over the lifetime of the server.
  std::atomic<int64_t> accepted{0};
  /// Currently open connections (gauge).
  std::atomic<int64_t> active_connections{0};
  /// Request lines handed to the dispatcher pool.
  std::atomic<int64_t> dispatched{0};
  /// Request lines refused because the bounded queue was full; each
  /// was answered with a `% overloaded` frame, connection kept alive.
  std::atomic<int64_t> rejected_overload{0};
  /// Connections closed for exceeding the max request-line size.
  std::atomic<int64_t> rejected_oversize{0};
  /// Completed responses written back (including error frames).
  std::atomic<int64_t> responses{0};
  std::atomic<int64_t> bytes_in{0};
  std::atomic<int64_t> bytes_out{0};
  /// Requests sitting in the bounded queue right now (gauge) and the
  /// deepest the queue has ever been.
  std::atomic<int64_t> queue_depth{0};
  std::atomic<int64_t> queue_high_watermark{0};

  /// Records a new queue depth, advancing the high watermark.
  void RecordQueueDepth(int64_t depth) {
    queue_depth.store(depth, std::memory_order_relaxed);
    int64_t seen = queue_high_watermark.load(std::memory_order_relaxed);
    while (depth > seen &&
           !queue_high_watermark.compare_exchange_weak(
               seen, depth, std::memory_order_relaxed)) {
    }
  }
};

}  // namespace chainsplit

#endif  // CHAINSPLIT_NET_NET_COUNTERS_H_
