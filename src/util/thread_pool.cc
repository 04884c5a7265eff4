#include "util/thread_pool.h"

#include <atomic>
#include <exception>

namespace ssql {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::RunAll(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  struct Barrier {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining;
    std::exception_ptr first_error;
  };
  auto barrier = std::make_shared<Barrier>();
  barrier->remaining = tasks.size();

  for (auto& task : tasks) {
    Submit([task = std::move(task), barrier] {
      std::exception_ptr err;
      try {
        task();
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(barrier->mu);
      if (err && !barrier->first_error) barrier->first_error = err;
      if (--barrier->remaining == 0) barrier->cv.notify_all();
    });
  }

  // The calling thread helps drain the queue instead of blocking outright.
  // This makes nested RunAll calls safe: a task that itself calls RunAll
  // would otherwise park a worker on the barrier while its subtasks sit in
  // the queue — with a single-threaded pool, a deadlock. Every RunAll
  // caller executes queued tasks (its own or anyone else's) until nothing
  // is queued, and only then waits for stragglers running on other threads.
  while (true) {
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop_front();
      }
    }
    if (task) {
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(barrier->mu);
    if (barrier->remaining == 0) break;
    barrier->cv.wait(lock, [&] { return barrier->remaining == 0; });
    break;
  }
  if (barrier->first_error) std::rethrow_exception(barrier->first_error);
}

void RunAllOn(ThreadPool* pool, std::vector<std::function<void()>> tasks) {
  if (pool != nullptr) {
    pool->RunAll(std::move(tasks));
    return;
  }
  for (auto& task : tasks) task();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (shutdown_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace ssql
