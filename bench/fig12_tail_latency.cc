// Figure 12: Silo/YCSB transaction latency percentiles across concurrent
// VMs, per guest design.
//
// Paper shapes: Demeter lowest at every percentile, with the biggest margin
// at p99 (-23% vs TPP): balanced relocation avoids the reclaim/fault storms
// that inflate the tail under the other designs.

#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "src/base/histogram.h"

namespace demeter {
namespace {

int Run(int argc, char** argv) {
  const BenchScale scale = BenchScale::FromArgs(argc, argv);
  std::printf("Figure 12: Silo YCSB latency percentiles (microseconds, %d VMs)\n\n",
              scale.concurrent_vms);
  TablePrinter table({"design", "p50", "p90", "p95", "p99", "mean"});

  std::vector<ExperimentSpec> specs;
  for (PolicyKind policy : {PolicyKind::kStatic, PolicyKind::kTpp, PolicyKind::kMemtis,
                            PolicyKind::kNomad, PolicyKind::kDemeter}) {
    specs.push_back(SpecFor(scale, "silo", policy, scale.concurrent_vms));
  }
  const std::vector<ExperimentResult> results = RunSpecs(scale, std::move(specs));
  CheckAllOk(results);

  for (const ExperimentResult& result : results) {
    Histogram merged;
    for (const VmRunResult& vm : result.vms) {
      merged.Merge(vm.txn_latency_ns);
    }
    auto us = [&](double p) { return static_cast<double>(merged.Percentile(p)) / 1000.0; };
    table.AddRow({PolicyKindName(result.spec.vms[0].policy), TablePrinter::Fmt(us(50), 2),
                  TablePrinter::Fmt(us(90), 2), TablePrinter::Fmt(us(95), 2),
                  TablePrinter::Fmt(us(99), 2), TablePrinter::Fmt(merged.Mean() / 1000.0, 2)});
  }
  table.Print();
  std::printf("\nExpected shape (paper): demeter lowest across percentiles, widest\n"
              "margin at p99.\n");
  return 0;
}

}  // namespace
}  // namespace demeter

int main(int argc, char** argv) { return demeter::Run(argc, argv); }
