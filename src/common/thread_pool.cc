#include "common/thread_pool.h"

#include <chrono>

#include "common/logging.h"

namespace chainsplit {
namespace {

/// The pool whose WorkerLoop runs on this thread (null elsewhere). Lets
/// WorkGroup::Wait() detect that it is being called from inside a pool
/// task, where sleeping would strand the worker (nested-submission
/// deadlock: every worker blocked on a child group none of them can
/// drain).
thread_local const ThreadPool* g_worker_pool = nullptr;

}  // namespace

void ThreadPool::WorkGroup::Wait() {
  if (pool_ == nullptr || !pool_->OnWorkerThread()) {
    // External thread: nothing useful to do but sleep.
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return pending_ == 0; });
    return;
  }
  // Pool worker: help while waiting. Run queued tasks inline (any
  // group's — draining foreign work still frees workers that may be
  // running ours). When the queue is empty our remaining tasks are
  // running on other workers; poll with a short timed wait because a
  // foreign task finishing will not signal this group's cv_.
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (pending_ == 0) return;
    }
    if (pool_->RunOneTask()) continue;
    std::unique_lock<std::mutex> lock(mu_);
    if (cv_.wait_for(lock, std::chrono::milliseconds(1),
                     [this] { return pending_ == 0; })) {
      return;
    }
  }
}

void ThreadPool::WorkGroup::OnTaskDone() {
  std::lock_guard<std::mutex> lock(mu_);
  if (--pending_ == 0) cv_.notify_all();
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 1;
  }
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  // default_group_ is destroyed after this body; its Wait() returns
  // immediately because the joined workers drained the queue.
}

bool ThreadPool::PopTask(Task* task) {
  if (queue_.empty()) return false;
  *task = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

bool ThreadPool::OnWorkerThread() const { return g_worker_pool == this; }

bool ThreadPool::RunOneTask() {
  Task task;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!PopTask(&task)) return false;
  }
  task.fn();
  task.group->OnTaskDone();
  return true;
}

void ThreadPool::WorkerLoop() {
  g_worker_pool = this;
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (!PopTask(&task)) return;  // stop_ set, queue drained
    }
    task.fn();
    task.group->OnTaskDone();
  }
}

void ThreadPool::SubmitTask(WorkGroup* group, std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(group->mu_);
    ++group->pending_;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    CS_CHECK(!stop_) << "Submit on a stopping ThreadPool";
    queue_.push_back(Task{std::move(task), group});
  }
  work_cv_.notify_one();
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

}  // namespace chainsplit
