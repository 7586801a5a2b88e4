#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

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

}  // namespace
}  // namespace chainsplit
