// Cross-product sweep: every TMM policy x both slow-memory kinds (PMEM and
// emulated CXL.mem) x a representative workload mix, in one invocation.
//
// No single paper figure covers this matrix — it exists because the parallel
// experiment runner makes a 56-simulation sweep practical where the old
// sequential harness made it prohibitive. Output: one summary-table row and
// one JSON-lines record per experiment (use --out=FILE for the latter), so
// downstream what-if analysis (policy choice per tier technology) needs no
// extra binaries.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"

namespace demeter {
namespace {

int Run(int argc, char** argv) {
  const BenchScale scale = BenchScale::FromArgs(argc, argv);
  const std::vector<PolicyKind> policies = {
      PolicyKind::kStatic, PolicyKind::kDemeter, PolicyKind::kTpp,  PolicyKind::kHTpp,
      PolicyKind::kMemtis, PolicyKind::kNomad,   PolicyKind::kDamon};
  const std::vector<SmemKind> smem_kinds = {SmemKind::kPmem, SmemKind::kCxl};
  // GUPS (adversarial hotspot churn) plus the hotspot-heavy and graph-shaped
  // extremes of the real-world suite.
  const std::vector<std::string> workloads = {"gups", "silo", "xsbench", "pagerank"};

  std::printf("Sweep matrix: %zu policies x %zu slow tiers x %zu workloads (%zu experiments)\n\n",
              policies.size(), smem_kinds.size(), workloads.size(),
              policies.size() * smem_kinds.size() * workloads.size());

  std::vector<ExperimentSpec> specs;
  for (const std::string& workload : workloads) {
    for (SmemKind smem : smem_kinds) {
      for (PolicyKind policy : policies) {
        specs.push_back(SpecFor(scale, workload, policy, scale.concurrent_vms, smem));
      }
    }
  }
  const std::vector<ExperimentResult> results = RunSpecs(scale, std::move(specs));
  TableSink table;
  EmitResults(results, {&table});

  // Per (workload, tier) winner by mean elapsed time — the sweep's headline.
  std::printf("\nFastest policy per cell:\n");
  size_t next = 0;
  for (const std::string& workload : workloads) {
    for (SmemKind smem : smem_kinds) {
      double best = 1e300;
      std::string who = "-";
      for (size_t p = 0; p < policies.size(); ++p) {
        const ExperimentResult& result = results[next++];
        if (result.ok && result.MeanElapsedSeconds() < best) {
          best = result.MeanElapsedSeconds();
          who = PolicyKindName(result.spec.vms.front().policy);
        }
      }
      std::printf("  %-10s %-5s %-8s %.3f s\n", workload.c_str(), SmemKindName(smem),
                  who.c_str(), best);
    }
  }
  return 0;
}

}  // namespace
}  // namespace demeter

int main(int argc, char** argv) { return demeter::Run(argc, argv); }
