#include "src/runner/experiment.h"

namespace demeter {

double ExperimentResult::MeanElapsedSeconds() const {
  double total = 0.0;
  for (const VmRunResult& vm : vms) {
    total += vm.elapsed_s;
  }
  return vms.empty() ? 0.0 : total / static_cast<double>(vms.size());
}

double ExperimentResult::TotalMgmtCores() const {
  double total = 0.0;
  for (const VmRunResult& vm : vms) {
    total += vm.MgmtCores();
  }
  return total;
}

ExperimentResult RunExperiment(const ExperimentSpec& spec) {
  ExperimentResult result;
  result.spec = spec;

  if (spec.cluster.num_hosts > 0) {
    Cluster cluster(spec.config, spec.cluster);
    for (const VmSetup& setup : spec.vms) {
      cluster.AddVm(setup);
    }
    cluster.Run();
    result.vms.reserve(spec.vms.size());
    for (int i = 0; i < cluster.num_vms(); ++i) {
      result.vms.push_back(cluster.result(i));
    }
    // Single host: the snapshot is a bare machine's, so strip "host/" as
    // the classic path does. Multi-host: names are already fully scoped
    // ("host<h>/...", "cluster/..."), keep them verbatim.
    const MetricSnapshot snapshot = cluster.SnapshotMetrics();
    result.host_metrics = spec.cluster.num_hosts == 1
                              ? snapshot.FilterPrefix("host/", /*strip=*/true)
                              : snapshot;
    if (spec.config.capture_trace) {
      result.trace = cluster.TakeTrace();
    }
    result.ok = true;
    return result;
  }

  Machine machine(spec.config);
  for (const VmSetup& setup : spec.vms) {
    machine.AddVm(setup);
  }
  machine.Run();

  result.vms.reserve(spec.vms.size());
  for (int i = 0; i < machine.num_vms(); ++i) {
    result.vms.push_back(machine.result(i));
  }
  result.host_metrics = machine.SnapshotMetrics().FilterPrefix("host/", /*strip=*/true);
  if (spec.config.capture_trace) {
    result.trace = machine.TakeTrace();
  }
  result.ok = true;
  return result;
}

}  // namespace demeter
