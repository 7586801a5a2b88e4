#ifndef CHAINSPLIT_NET_REQUEST_QUEUE_H_
#define CHAINSPLIT_NET_REQUEST_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

#include "net/net_counters.h"

namespace chainsplit {

/// A bounded multi-producer / multi-consumer queue — the admission
/// valve between the event loop and the dispatcher pool. Producers
/// never block: TryPush fails immediately when the queue is at
/// capacity, which is the signal to answer `% overloaded` instead of
/// letting latency and memory grow without bound. Consumers block in
/// Pop until work arrives or Stop() drains them out.
template <typename T>
class BoundedQueue {
 public:
  /// `counters` (optional) receives depth/high-watermark telemetry.
  explicit BoundedQueue(size_t capacity, NetCounters* counters = nullptr)
      : capacity_(capacity), counters_(counters) {}

  /// Enqueues unless full or stopped; never blocks.
  bool TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      if (counters_ != nullptr) {
        counters_->RecordQueueDepth(static_cast<int64_t>(items_.size()));
      }
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks for the next item; false once stopped and drained.
  bool Pop(T* item) {
    std::unique_lock<std::mutex> lock(mu_);
    // The wait also re-checks on a timer: glibc before 2.41 can lose a
    // pthread_cond_signal (sourceware bug 25847), and a lost notify
    // would leave a pushed line queued, its client stalled, until some
    // later push. The timer bounds that stall at kRecheck.
    while (!cv_.wait_for(lock, kRecheck,
                         [this] { return stopped_ || !items_.empty(); })) {
    }
    if (items_.empty()) return false;
    *item = std::move(items_.front());
    items_.pop_front();
    if (counters_ != nullptr) {
      counters_->RecordQueueDepth(static_cast<int64_t>(items_.size()));
    }
    return true;
  }

  /// Wakes every blocked consumer; queued items are still drained (Pop
  /// keeps returning them), new pushes are refused.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopped_ = true;
    }
    cv_.notify_all();
  }

  size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  static constexpr std::chrono::milliseconds kRecheck{50};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  const size_t capacity_;
  NetCounters* counters_;
  bool stopped_ = false;
};

}  // namespace chainsplit

#endif  // CHAINSPLIT_NET_REQUEST_QUEUE_H_
