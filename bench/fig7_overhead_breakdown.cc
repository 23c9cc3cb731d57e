// Figure 7: breakdown of tiered-memory-management CPU overhead (seconds)
// per pipeline stage across guest designs, summed over concurrent VMs
// running GUPS.
//
// Paper shapes: Demeter's tracking (context-switch drains) is ~16x cheaper
// than Memtis' dedicated collection threads; TPP and Nomad pay heavy
// page-table scanning and fault-driven migration; Memtis shows almost no
// migration because its page-granular classification finds too little hot
// data (reflected in its longer run time, not in this table).

#include <cstdio>
#include <vector>

#include "bench/common.h"

namespace demeter {
namespace {

int Run(int argc, char** argv) {
  const BenchScale scale = BenchScale::FromArgs(argc, argv);
  std::printf("Figure 7: TMM overhead breakdown (CPU seconds, %d VMs, GUPS)\n\n",
              scale.concurrent_vms);
  TablePrinter table(
      {"design", "tracking", "classification", "migration", "pmi", "total", "elapsed-s",
       "promoted-pages"});

  std::vector<ExperimentSpec> specs;
  for (PolicyKind policy :
       {PolicyKind::kTpp, PolicyKind::kNomad, PolicyKind::kMemtis, PolicyKind::kDemeter}) {
    specs.push_back(SpecFor(scale, "gups", policy, scale.concurrent_vms));
  }
  const std::vector<ExperimentResult> results = RunSpecs(scale, std::move(specs));
  CheckAllOk(results);

  for (const ExperimentResult& result : results) {
    CpuAccount total;
    uint64_t promoted = 0;
    for (const VmRunResult& vm : result.vms) {
      total.Merge(vm.mgmt);
      promoted += vm.vm_stats.pages_promoted;
    }
    table.AddRow({PolicyKindName(result.spec.vms[0].policy),
                  TablePrinter::Fmt(ToSeconds(total.ForStage(TmmStage::kTracking)), 4),
                  TablePrinter::Fmt(ToSeconds(total.ForStage(TmmStage::kClassification)), 4),
                  TablePrinter::Fmt(ToSeconds(total.ForStage(TmmStage::kMigration)), 4),
                  TablePrinter::Fmt(ToSeconds(total.ForStage(TmmStage::kPmi)), 4),
                  TablePrinter::Fmt(ToSeconds(total.Total()), 4),
                  TablePrinter::Fmt(result.MeanElapsedSeconds(), 3),
                  TablePrinter::Fmt(promoted)});
  }
  table.Print();
  return 0;
}

}  // namespace
}  // namespace demeter

int main(int argc, char** argv) { return demeter::Run(argc, argv); }
