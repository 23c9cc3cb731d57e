// Fixed-size worker thread pool with per-job exception isolation.
//
// A small mutex/condvar task queue drained by N std::jthread workers. Jobs
// are submitted as callables and observed through std::future: a job that
// throws poisons only its own future (the worker survives and moves on).
// Destruction abandons jobs no worker has started — their futures fail with
// std::future_error(broken_promise) — and joins after in-flight jobs finish.
//
// The pool imposes no ordering semantics of its own — deterministic result
// ordering is the caller's job. The ExperimentRunner lands results in
// submission-indexed slots with seeds derived from spec content; Cluster::Run
// gives each job one host's private state and reads it back only after every
// job of the phase has finished. Either way scheduling cannot leak into
// results.

#ifndef DEMETER_SRC_BASE_THREAD_POOL_H_
#define DEMETER_SRC_BASE_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace demeter {

class ThreadPool {
 public:
  // num_threads <= 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a job. The future reports completion or rethrows the job's
  // exception. Must not be called after the destructor has begun.
  std::future<void> Submit(std::function<void()> fn);

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;  // Queue gained work / shutdown.
  std::deque<std::packaged_task<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::jthread> workers_;
};

}  // namespace demeter

#endif  // DEMETER_SRC_BASE_THREAD_POOL_H_
