// Table 1: TLB flush instruction counts (single / full) and GUPS elapsed
// time for hypervisor-based TPP (H-TPP), guest-based TPP (G-TPP), and
// Demeter.
//
// Paper shapes: H-TPP issues by far the most flushes including millions of
// destructive full invalidations and runs ~2.5x slower; G-TPP uses only
// single-address invalidations; Demeter cuts single flushes roughly in half
// again (~47%) and runs ~15% faster than G-TPP.

#include <cstdio>
#include <vector>

#include "bench/common.h"

namespace demeter {
namespace {

int Run(int argc, char** argv) {
  const BenchScale scale = BenchScale::FromArgs(argc, argv);
  std::printf("Table 1: TLB flush comparison under GUPS\n\n");
  TablePrinter table({"design", "tlb-flush-single", "tlb-flush-full", "gups-elapsed-s"});

  std::vector<ExperimentSpec> specs;
  for (PolicyKind policy : {PolicyKind::kHTpp, PolicyKind::kTpp, PolicyKind::kDemeter}) {
    ExperimentSpec spec = SpecFor(scale, "gups", policy, 1);
    if (policy == PolicyKind::kHTpp) {
      // The hypervisor port's MMU-notifier hooks fire with guest activity,
      // not on the guest's coarse scan timer: scan much more often.
      spec.vms[0].policy_period = scale.policy_period / 3;
    }
    specs.push_back(std::move(spec));
  }
  const std::vector<ExperimentResult> results = RunSpecs(scale, std::move(specs));
  CheckAllOk(results);

  for (const ExperimentResult& experiment : results) {
    const VmRunResult& result = experiment.vms[0];
    const PolicyKind policy = experiment.spec.vms[0].policy;
    const char* label = policy == PolicyKind::kHTpp   ? "H-TPP"
                        : policy == PolicyKind::kTpp ? "G-TPP"
                                                     : "Demeter";
    table.AddRow({label, TablePrinter::Fmt(result.tlb.single_flushes),
                  TablePrinter::Fmt(result.tlb.full_flushes),
                  TablePrinter::Fmt(result.elapsed_s, 3)});
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper): full invalidations only under H-TPP; Demeter\n"
      "issues the fewest single invalidations and finishes first.\n");
  return 0;
}

}  // namespace
}  // namespace demeter

int main(int argc, char** argv) { return demeter::Run(argc, argv); }
