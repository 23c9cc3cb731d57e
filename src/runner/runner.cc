#include "src/runner/runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <future>
#include <mutex>
#include <thread>
#include <utility>

#include "src/base/logging.h"
#include "src/base/thread_pool.h"

namespace demeter {

ExperimentRunner::ExperimentRunner(RunnerOptions options) : options_(std::move(options)) {
  if (!options_.run_fn) {
    options_.run_fn = RunExperiment;
  }
}

size_t ExperimentRunner::Submit(ExperimentSpec spec) {
  DEMETER_CHECK(!ran_) << "Submit after RunAll";
  specs_.push_back(std::move(spec));
  return specs_.size() - 1;
}

ExperimentResult ExperimentRunner::RunIsolated(const ExperimentSpec& spec) {
  try {
    return options_.run_fn(spec);
  } catch (const std::exception& e) {
    ExperimentResult result;
    result.spec = spec;
    result.error = e.what();
    return result;
  }
}

std::vector<ExperimentResult> ExperimentRunner::RunAll() {
  DEMETER_CHECK(!ran_) << "RunAll is one-shot";
  ran_ = true;

  std::vector<ExperimentResult> results(specs_.size());
  std::atomic<size_t> done{0};
  std::mutex progress_mu;

  // Never more workers than specs: an idle worker is a thread for nothing.
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  const size_t jobs = options_.jobs > 0 ? static_cast<size_t>(options_.jobs) : cores;
  ThreadPool pool(static_cast<int>(std::max<size_t>(1, std::min(jobs, specs_.size()))));
  std::vector<std::future<void>> futures;
  futures.reserve(specs_.size());
  for (size_t i = 0; i < specs_.size(); ++i) {
    futures.push_back(pool.Submit([this, i, &results, &done, &progress_mu] {
      // Each job owns exactly its submission-indexed slot; completion order
      // never reorders results.
      results[i] = RunIsolated(specs_[i]);
      const size_t finished = done.fetch_add(1) + 1;
      if (options_.progress && options_.progress_stream != nullptr) {
        std::lock_guard<std::mutex> lock(progress_mu);
        std::fprintf(options_.progress_stream, "[runner %zu/%zu] %s %s\n", finished,
                     specs_.size(), specs_[i].name.c_str(), results[i].ok ? "ok" : "FAILED");
        std::fflush(options_.progress_stream);
      }
    }));
  }
  // RunIsolated never lets a job exception escape, so these futures only
  // signal completion; get() also surfaces any unexpected infrastructure
  // error instead of swallowing it.
  for (std::future<void>& future : futures) {
    future.get();
  }
  return results;
}

}  // namespace demeter
