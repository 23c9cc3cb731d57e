// Structured result sinks for experiment sweeps.
//
// A ResultSink consumes ExperimentResults in spec order (the runner's
// ordering guarantee makes sink output deterministic across --jobs values).
// Two implementations:
//   - JsonLinesSink: one JSON object per (experiment, VM) pair with stable
//     key order and fixed float formatting — machine-readable sweep output.
//   - TableSink: a generic summary table on the existing harness
//     TablePrinter, so bench stdout keeps the established look.

#ifndef DEMETER_SRC_RUNNER_RESULT_SINK_H_
#define DEMETER_SRC_RUNNER_RESULT_SINK_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/harness/table.h"
#include "src/runner/experiment.h"

namespace demeter {

class ResultSink {
 public:
  virtual ~ResultSink() = default;
  // Called once per experiment, in spec order.
  virtual void Consume(const ExperimentResult& result) = 0;
  // Called once after the last Consume; flushes/prints.
  virtual void Finish() {}
};

class JsonLinesSink : public ResultSink {
 public:
  // Opens `path` for writing (truncates); aborts if it cannot.
  explicit JsonLinesSink(const std::string& path);
  ~JsonLinesSink() override;

  // Both abort, naming the path and errno, when a write, flush or close
  // fails: a full disk must not truncate results silently.
  void Consume(const ExperimentResult& result) override;
  void Finish() override;

  // One line per VM (plus one line for a failed experiment), exposed for
  // tests and for embedding into other outputs.
  static std::string ToJsonLines(const ExperimentResult& result);

 private:
  std::FILE* out_ = nullptr;
  std::string path_;  // For error messages.
};

class TableSink : public ResultSink {
 public:
  TableSink();

  void Consume(const ExperimentResult& result) override;
  void Finish() override;  // Prints the table to stdout.

  const TablePrinter& table() const { return table_; }

 private:
  TablePrinter table_;
};

// Feeds every result to every sink in order, then finishes each sink.
void EmitResults(const std::vector<ExperimentResult>& results,
                 const std::vector<ResultSink*>& sinks);

}  // namespace demeter

#endif  // DEMETER_SRC_RUNNER_RESULT_SINK_H_
