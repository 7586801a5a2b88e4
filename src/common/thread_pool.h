#ifndef CHAINSPLIT_COMMON_THREAD_POOL_H_
#define CHAINSPLIT_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace chainsplit {

/// A small fixed-size work-queue thread pool: the SCC schedule runs
/// independent strata on it (core/scc_schedule.h) and the batch driver
/// runs its clients on it (service/batch_driver.h).
///
/// Scheduling: every task belongs to a WorkGroup (a per-caller
/// completion counter), so independent callers — two concurrent
/// service queries, say — wait only for their own tasks, never each
/// other's. Tasks run in submission order from one shared queue.
///
/// Usage contract: tasks must not throw. Nested submission is safe:
/// a task running on a pool worker may submit child tasks (its own
/// WorkGroup) and Wait() on them — a worker blocked in Wait() *helps*,
/// draining queued tasks inline instead of sleeping, so a saturated
/// pool cannot deadlock on child work (see WorkGroup::Wait).
/// Determinism is the caller's job — give each task private output
/// storage and merge in a fixed order after Wait() returns.
class ThreadPool {
 public:
  /// A per-caller completion token: counts only the tasks submitted
  /// through it, so Wait() is unaffected by other callers sharing the
  /// pool. Destroying a WorkGroup waits for its outstanding tasks.
  class WorkGroup {
   public:
    explicit WorkGroup(ThreadPool* pool) : pool_(pool) {}
    ~WorkGroup() { Wait(); }
    WorkGroup(const WorkGroup&) = delete;
    WorkGroup& operator=(const WorkGroup&) = delete;

    /// Enqueues `task`.
    void Submit(std::function<void()> task) {
      pool_->SubmitTask(this, std::move(task));
    }

    /// Blocks until every task submitted through *this group* is done.
    /// When called from a worker of the same pool, runs queued tasks
    /// (any group's) inline while waiting, so nested WorkGroups never
    /// deadlock a saturated pool.
    void Wait();

   private:
    friend class ThreadPool;
    void OnTaskDone();

    ThreadPool* pool_;
    std::mutex mu_;
    std::condition_variable cv_;
    int64_t pending_ = 0;  // queued + running tasks of this group
  };

  /// `num_threads` == 0 picks std::thread::hardware_concurrency().
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `task` on the pool's default group (see Wait()).
  void Submit(std::function<void()> task) {
    SubmitTask(&default_group_, std::move(task));
  }

  /// Blocks until every task submitted via Submit() has finished.
  /// Tasks submitted through explicit WorkGroups are *not* waited for
  /// — callers with private groups wait on those instead.
  void Wait() { default_group_.Wait(); }

  /// Process-wide pool, sized to the hardware, created on first use.
  static ThreadPool& Shared();

 private:
  struct Task {
    std::function<void()> fn;
    WorkGroup* group;
  };

  void SubmitTask(WorkGroup* group, std::function<void()> task);
  void WorkerLoop();
  /// Pops the oldest queued task. Caller holds mu_; returns false when
  /// the queue is empty.
  bool PopTask(Task* task);
  /// True when the calling thread is one of this pool's workers.
  bool OnWorkerThread() const;
  /// Pops and runs one queued task on the calling thread (used by a
  /// worker helping while it waits). Returns false when the queue was
  /// empty.
  bool RunOneTask();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // signals workers: task or stop
  std::deque<Task> queue_;
  bool stop_ = false;
  WorkGroup default_group_{this};
};

}  // namespace chainsplit

#endif  // CHAINSPLIT_COMMON_THREAD_POOL_H_
