#ifndef SSQL_UTIL_THREAD_POOL_H_
#define SSQL_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ssql {

/// Fixed-size worker pool. The mini-Spark engine schedules one task per
/// partition onto this pool, standing in for the cluster's executors.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution.
  void Submit(std::function<void()> task);

  /// Runs `tasks` on the pool and blocks until all complete. Exceptions
  /// thrown by tasks are captured; the first one is rethrown here. The
  /// calling thread helps execute queued tasks while it waits, so RunAll
  /// may be called from inside a task (nested stages) without deadlocking
  /// even on a single-threaded pool. Every task always runs; cancellation
  /// between tasks is layered on top by TaskRunner (engine/task_runner.h).
  void RunAll(std::vector<std::function<void()>> tasks);

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  bool shutdown_ = false;
};

/// Runs `tasks` with ThreadPool::RunAll on `pool`, or inline on the calling
/// thread, in order, when `pool` is null (callers outside any SqlContext).
/// Either way a task's exception reaches the caller.
void RunAllOn(ThreadPool* pool, std::vector<std::function<void()>> tasks);

}  // namespace ssql

#endif  // SSQL_UTIL_THREAD_POOL_H_
