// Figure 2: CPU cores consumed by tiered memory management as the number of
// concurrent VMs grows (GUPS with a fixed total working set divided evenly
// across VMs).
//
// Paper shapes: TPP wastes the most cores (>4.5 of 36 at nine VMs in the
// paper) and grows with VM count; Memtis sits in the middle (~1.25 cores);
// Demeter stays flat and low (<0.2 cores).

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench/common.h"

namespace demeter {
namespace {

constexpr int kVmCounts[] = {1, 3, 5, 7, 9};
constexpr PolicyKind kPolicies[] = {PolicyKind::kTpp, PolicyKind::kMemtis, PolicyKind::kDemeter};

int Run(int argc, char** argv) {
  const BenchScale base_scale = BenchScale::FromArgs(argc, argv);
  std::printf("Figure 2: management CPU cores vs concurrent VMs (GUPS)\n\n");
  TablePrinter table({"vms", "tpp-cores", "memtis-cores", "demeter-cores"});

  // Fixed total footprint split across VMs, like the paper's fixed 126 GiB.
  const uint64_t total_footprint = base_scale.footprint() * 3;

  // All fifteen (vms, policy) points are independent simulations.
  std::vector<ExperimentSpec> specs;
  for (int vms : kVmCounts) {
    for (PolicyKind policy : kPolicies) {
      BenchScale scale = base_scale;
      // Constant per-VM work: "cores wasted" is an intensive metric, and a
      // run must be long enough for one-time convergence migration to
      // amortize (the paper's runs span hundreds of policy periods).
      scale.transactions = base_scale.transactions * 2;
      // Each VM is sized to its share of the fixed working set (the paper
      // divides 126 GiB across however many VMs are running).
      const uint64_t per_vm_footprint = PageFloor(total_footprint / static_cast<uint64_t>(vms));
      scale.vm_bytes = PageCeil(per_vm_footprint * 4 / 3);
      ExperimentSpec spec;
      spec.name = "vms" + std::to_string(vms) + "/" + PolicyKindName(policy);
      spec.tag = "gups";
      spec.config = HostFor(scale, vms);
      for (int v = 0; v < vms; ++v) {
        VmSetup setup = SetupFor(scale, "gups", policy);
        setup.footprint_bytes = per_vm_footprint;
        spec.vms.push_back(setup);
      }
      specs.push_back(std::move(spec));
    }
  }
  const std::vector<ExperimentResult> results = RunSpecs(base_scale, std::move(specs));
  CheckAllOk(results);

  size_t next = 0;
  for (int vms : kVmCounts) {
    std::vector<double> cores;
    for (size_t p = 0; p < std::size(kPolicies); ++p) {
      cores.push_back(results[next++].TotalMgmtCores());
    }
    table.AddRow({TablePrinter::Fmt(static_cast<uint64_t>(vms)), TablePrinter::Fmt(cores[0], 3),
                  TablePrinter::Fmt(cores[1], 3), TablePrinter::Fmt(cores[2], 3)});
  }
  table.Print();
  std::printf("\nExpected shape (paper): tpp >> memtis >> demeter, with demeter flat.\n");
  return 0;
}

}  // namespace
}  // namespace demeter

int main(int argc, char** argv) { return demeter::Run(argc, argv); }
