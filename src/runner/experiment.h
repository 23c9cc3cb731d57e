// Declarative experiment descriptions for the parallel runner.
//
// An ExperimentSpec is one independent simulation: a host (MachineConfig),
// the VMs to boot on it (VmSetup list), and a name/tag for reporting. Specs
// are pure data — the runner turns each one into a Machine, runs it to
// completion, and collects the per-VM results.
//
// Seed rule: every experiment runs at its spec's base seed
// (`config.seed`), exactly as a Machine or Cluster built by hand from the
// same config would. The seed never depends on submission order, worker
// identity or completion order, so two identical specs always produce
// bit-identical results, and `--jobs=1` and `--jobs=8` are byte-identical.
// Specs that differ only in policy or configuration share their seed, so
// a comparison between them is not confounded by a different random draw.

#ifndef DEMETER_SRC_RUNNER_EXPERIMENT_H_
#define DEMETER_SRC_RUNNER_EXPERIMENT_H_

#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/harness/machine.h"

namespace demeter {

struct ExperimentSpec {
  std::string name;           // Unique-ish label, used in reports and sinks.
  std::string tag;            // Free-form grouping key (e.g. workload or row).
  MachineConfig config;       // config.seed is the user-chosen base seed.
  std::vector<VmSetup> vms;
  // Fleet topology. Default (num_hosts == 0) runs the classic single
  // Machine; >= 1 builds a Cluster with `config` as the per-host template.
  ClusterSetup cluster;
};

// The seed the runner hands to the Machine (or Cluster) for this spec: its
// base seed, per the rule above.
inline uint64_t DeriveSeed(const ExperimentSpec& spec) { return spec.config.seed; }

struct ExperimentResult {
  ExperimentSpec spec;
  std::vector<VmRunResult> vms;   // One entry per spec.vms element.
  // Host-side registry snapshot ("host/" prefix stripped).
  MetricSnapshot host_metrics;
  // Trace events recorded during the run (spec.config.capture_trace only).
  // Merged across specs in submission order by the sinks, so trace files
  // stay deterministic regardless of --jobs.
  std::vector<TraceEvent> trace;
  bool ok = false;
  std::string error;              // Set when !ok.

  double MeanElapsedSeconds() const;
  double TotalMgmtCores() const;
};

// Runs one spec synchronously on the calling thread: builds the Machine (or
// Cluster) from `spec.config`, boots the VMs, runs to the transaction
// targets, and copies out the per-VM results. Throws (or aborts on simulation-invariant
// violation) rather than returning a partial result.
ExperimentResult RunExperiment(const ExperimentSpec& spec);

}  // namespace demeter

#endif  // DEMETER_SRC_RUNNER_EXPERIMENT_H_
