#include "src/base/thread_pool.h"

#include <algorithm>
#include <utility>

#include "src/base/logging.h"

namespace demeter {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    // Unstarted jobs are abandoned; dropping the packaged_tasks breaks their
    // promises, which is exactly what waiting futures should observe.
    queue_.clear();
  }
  work_cv_.notify_all();
  // jthread joins in workers_'s destructor.
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    DEMETER_CHECK(!shutdown_) << "Submit after shutdown";
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
  return future;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // Shutdown with nothing left to run.
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // packaged_task routes any exception into the job's future; the worker
    // itself never unwinds past this call.
    task();
  }
}

}  // namespace demeter
