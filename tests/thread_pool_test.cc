#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "rel/ops.h"
#include "rel/relation.h"

namespace chainsplit {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int64_t> sum{0};
  for (int i = 1; i <= 1000; ++i) {
    pool.Submit([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(sum.load(), 1000 * 1001 / 2);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossWaves) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), (wave + 1) * 20);
  }
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(3);
  pool.Wait();
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.ParallelFor(0, 10000, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForRunsInlineBelowGrain) {
  ThreadPool pool(4);
  int64_t sum = 0;  // unsynchronized: must be safe when run inline
  pool.ParallelFor(0, 50, 1000, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) sum += i;
  });
  EXPECT_EQ(sum, 49 * 50 / 2);
}

/// Regression test for the global-in_flight_ Wait() bug: a group's
/// Wait() must return once *its own* tasks are done, even while another
/// caller's task is still parked on the pool.
TEST(ThreadPoolTest, WorkGroupsWaitIndependently) {
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;

  ThreadPool::WorkGroup slow(&pool);
  std::atomic<bool> slow_done{false};
  slow.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    slow_done.store(true);
  });

  ThreadPool::WorkGroup fast(&pool);
  std::atomic<int> fast_count{0};
  for (int i = 0; i < 100; ++i) {
    fast.Submit([&fast_count] { fast_count.fetch_add(1); });
  }
  fast.Wait();  // would deadlock if Wait() counted the blocked task
  EXPECT_EQ(fast_count.load(), 100);
  EXPECT_FALSE(slow_done.load());

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  slow.Wait();
  EXPECT_TRUE(slow_done.load());
}

/// Concurrent ParallelFor callers (the two-service-queries scenario)
/// must each cover exactly their own range and return as soon as their
/// own chunks are done. Also the tsan target for the pool's queues.
TEST(ThreadPoolTest, ConcurrentParallelForCallersAreIndependent) {
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kRounds = 20;
  constexpr int64_t kN = 2000;
  std::atomic<int64_t> bad_rounds{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &bad_rounds] {
      for (int r = 0; r < kRounds; ++r) {
        std::vector<int> hits(kN, 0);
        pool.ParallelFor(0, kN, 64, [&hits](int64_t b, int64_t e) {
          for (int64_t i = b; i < e; ++i) ++hits[i];
        });
        // ParallelFor returned, so every chunk must have run exactly
        // once and its writes must be visible here.
        for (int64_t i = 0; i < kN; ++i) {
          if (hits[i] != 1) {
            bad_rounds.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(bad_rounds.load(), 0);
}

/// Affinity hints are soft: a backlog hinted at a blocked worker must
/// be stolen by the idle ones, and hints past size() wrap around.
TEST(ThreadPoolTest, IdleWorkersStealHintedBacklog) {
  ThreadPool pool(3);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;

  ThreadPool::WorkGroup group(&pool);
  group.Submit(
      [&] {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return release; });
      },
      /*affinity_hint=*/0);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i) {
    // All hinted at the blocked worker (hint 3 wraps to worker 0).
    group.Submit([&done] { done.fetch_add(1); }, i % 2 == 0 ? 0 : 3);
  }
  // Progress must not depend on worker 0 waking up.
  while (done.load() < 64) std::this_thread::yield();
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  group.Wait();
  EXPECT_EQ(done.load(), 64);
}

/// Regression test for the nested-submission deadlock: a task running
/// on a pool worker submits child tasks to the same pool and Wait()s
/// on them. With every worker occupied by such a parent, no worker
/// would ever be free to run a child — unless Wait() on a pool worker
/// helps by running queued tasks inline (thread_pool.cc,
/// WorkGroup::Wait). Saturates a 2-worker pool with parents at
/// submission depth 2 and requires completion.
TEST(ThreadPoolTest, NestedSubmissionAtSaturationCompletes) {
  constexpr int kWorkers = 2;
  ThreadPool pool(kWorkers);
  std::atomic<int> children_run{0};
  std::atomic<int> grandchildren_run{0};

  ThreadPool::WorkGroup parents(&pool);
  for (int i = 0; i < kWorkers; ++i) {  // one parent per worker
    parents.Submit([&] {
      // Depth 1: every worker is now inside a parent; children can
      // only run if Wait() executes them inline.
      ThreadPool::WorkGroup children(&pool);
      for (int c = 0; c < 8; ++c) {
        children.Submit([&] {
          // Depth 2: a child itself fans out and waits.
          ThreadPool::WorkGroup grand(&pool);
          for (int g = 0; g < 4; ++g) {
            grand.Submit([&] { grandchildren_run.fetch_add(1); });
          }
          grand.Wait();
          children_run.fetch_add(1);
        });
      }
      children.Wait();
    });
  }
  parents.Wait();
  EXPECT_EQ(children_run.load(), kWorkers * 8);
  EXPECT_EQ(grandchildren_run.load(), kWorkers * 8 * 4);
}

/// The inline-execution path must also hold when the nested submitter
/// mixes with unrelated outside work racing for the same workers.
TEST(ThreadPoolTest, NestedSubmissionInterleavesWithForeignTasks) {
  ThreadPool pool(2);
  std::atomic<int> nested_done{0};
  std::atomic<int> foreign_done{0};

  ThreadPool::WorkGroup outer(&pool);
  for (int i = 0; i < 4; ++i) {
    outer.Submit([&] {
      ThreadPool::WorkGroup inner(&pool);
      for (int c = 0; c < 16; ++c) {
        inner.Submit([&] { nested_done.fetch_add(1); });
      }
      inner.Wait();
    });
  }
  ThreadPool::WorkGroup foreign(&pool);
  for (int i = 0; i < 64; ++i) {
    foreign.Submit([&] { foreign_done.fetch_add(1); });
  }
  outer.Wait();
  foreign.Wait();
  EXPECT_EQ(nested_done.load(), 4 * 16);
  EXPECT_EQ(foreign_done.load(), 64);
}

/// The parallel HashJoin path must produce the same tuples in the same
/// row order as the sequential path, regardless of thread count. Runs
/// on an explicit 4-thread pool so the test is meaningful on any
/// hardware (the shared pool may have a single worker).
TEST(ThreadPoolTest, ParallelHashJoinIsDeterministic) {
  Relation left(2);
  Relation right(2);
  for (TermId i = 0; i < 5000; ++i) {
    left.Insert({i % 97, i});
    right.Insert({i % 89, i % 97});
  }
  const JoinSpec spec({{0, 1}});
  const std::vector<int> out_cols = {1, 2};

  Relation sequential(2);
  HashJoin(left, right, spec, out_cols, &sequential);  // below threshold

  const int64_t batches_before = GetPartitionedJoinTelemetry().batches;
  const int64_t old_threshold = SetParallelJoinMinRows(1);
  ThreadPool pool(4);
  Relation parallel(2);
  HashJoin(left, right, spec, out_cols, &parallel, &pool);
  SetParallelJoinMinRows(old_threshold);

  EXPECT_EQ(GetPartitionedJoinTelemetry().batches, batches_before + 1);
  ASSERT_EQ(parallel.size(), sequential.size());
  ASSERT_GT(parallel.size(), 0);
  for (int64_t i = 0; i < parallel.size(); ++i) {
    ASSERT_EQ(parallel.row(i), sequential.row(i)) << "row " << i;
  }
}

TEST(ThreadPoolTest, ParallelHashJoinRepeatsIdentically) {
  Relation left(2);
  Relation right(2);
  for (TermId i = 0; i < 600; ++i) left.Insert({i % 31, i});
  // Build side at the partitioned-path floor, so every join below runs
  // partitioned.
  for (TermId i = 0; i < kMinPartitionedBuildRows; ++i) {
    right.Insert({i, i % 31});
  }
  const JoinSpec spec({{0, 1}});
  const std::vector<int> out_cols = {0, 1, 2};

  const int64_t old_threshold = SetParallelJoinMinRows(1);
  ThreadPool pool(4);
  Relation first(3);
  HashJoin(left, right, spec, out_cols, &first, &pool);
  for (int rep = 0; rep < 3; ++rep) {
    Relation again(3);
    HashJoin(left, right, spec, out_cols, &again, &pool);
    ASSERT_EQ(again.size(), first.size());
    for (int64_t i = 0; i < again.size(); ++i) {
      ASSERT_EQ(again.row(i), first.row(i)) << "rep " << rep << " row " << i;
    }
  }
  SetParallelJoinMinRows(old_threshold);
}

}  // namespace
}  // namespace chainsplit
