// Parallel experiment orchestration with deterministic results.
//
// ExperimentRunner fans submitted ExperimentSpecs out across a fixed-size
// ThreadPool and returns results **in submission (spec) order**, no matter
// which worker finished first. Determinism guarantees:
//   - each job runs at its spec's base seed (experiment.h), so worker count
//     and scheduling cannot influence any simulation;
//   - results are collected into submission-indexed slots;
//   - progress reporting goes to stderr only, keeping stdout byte-identical
//     across --jobs values.
//
// Failure policy: each spec runs once. A job that throws std::exception is
// reported as ExperimentResult::{ok=false, error} and its neighbours run on,
// rather than the whole sweep aborting. There is no retry: a run is a
// deterministic function of its spec, so a second attempt would only repeat
// the failure. DEMETER_CHECK violations still abort — simulation-invariant
// breakage must never be turned into a reported result.

#ifndef DEMETER_SRC_RUNNER_RUNNER_H_
#define DEMETER_SRC_RUNNER_RUNNER_H_

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/runner/experiment.h"

namespace demeter {

struct RunnerOptions {
  // Worker threads; <= 0 selects std::thread::hardware_concurrency().
  // RunAll never starts more workers than there are specs.
  int jobs = 0;
  // One line per finished job on progress_stream (never stdout).
  bool progress = true;
  std::FILE* progress_stream = stderr;
  // Test/extension hook: how to execute one spec. Defaults to RunExperiment.
  std::function<ExperimentResult(const ExperimentSpec&)> run_fn;
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(RunnerOptions options = RunnerOptions{});

  // Registers a spec; returns its index == its slot in RunAll()'s result
  // vector. Call before RunAll.
  size_t Submit(ExperimentSpec spec);

  // Runs every submitted spec to completion (one-shot) and returns results
  // in submission order.
  std::vector<ExperimentResult> RunAll();

  size_t num_specs() const { return specs_.size(); }

 private:
  ExperimentResult RunIsolated(const ExperimentSpec& spec);

  RunnerOptions options_;
  std::vector<ExperimentSpec> specs_;
  bool ran_ = false;
};

}  // namespace demeter

#endif  // DEMETER_SRC_RUNNER_RUNNER_H_
