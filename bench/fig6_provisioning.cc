// Figure 6: average GUPS throughput under different tiered-memory
// provisioning techniques across concurrent VMs.
//
// All balloon rows boot VMs with both NUMA nodes at 100% of memory and rely
// on the provisioner to reach the 1:5 FMEM:SMEM target. Paper shapes:
// Demeter balloon matches static allocation for every TMM design; the
// classic VirtIO balloon starves FMEM (tier-blind inflation) and loses
// ~40% (68% gap in the paper against Demeter balloon + TPP); hotplug can
// only approximate the target in coarse blocks.

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench/common.h"

namespace demeter {
namespace {

constexpr ProvisionMode kModes[] = {ProvisionMode::kStatic, ProvisionMode::kVirtioBalloon,
                                    ProvisionMode::kDemeterBalloon, ProvisionMode::kHotplug};
constexpr PolicyKind kPolicies[] = {PolicyKind::kStatic, PolicyKind::kTpp, PolicyKind::kDemeter};

int Run(int argc, char** argv) {
  const BenchScale scale = BenchScale::FromArgs(argc, argv);
  std::printf("Figure 6: GUPS throughput by provisioning technique (M txn/s per VM, %d VMs)\n\n",
              scale.concurrent_vms);
  TablePrinter table({"provisioning", "static-policy", "tpp", "demeter"});

  std::vector<ExperimentSpec> specs;
  for (ProvisionMode mode : kModes) {
    for (PolicyKind policy : kPolicies) {
      ExperimentSpec spec = SpecFor(scale, "gups", policy, scale.concurrent_vms);
      spec.name = std::string(ProvisionModeName(mode)) + "/" + PolicyKindName(policy);
      spec.tag = ProvisionModeName(mode);
      for (VmSetup& setup : spec.vms) {
        setup.provision = mode;
        setup.target_transactions *= 2;  // Long runs: provisioning effects in steady state.
      }
      specs.push_back(std::move(spec));
    }
  }
  const std::vector<ExperimentResult> results = RunSpecs(scale, std::move(specs));
  CheckAllOk(results);

  size_t next = 0;
  for (ProvisionMode mode : kModes) {
    std::vector<std::string> row = {ProvisionModeName(mode)};
    for (size_t p = 0; p < std::size(kPolicies); ++p) {
      const ExperimentResult& result = results[next++];
      double total = 0.0;
      for (const VmRunResult& vm : result.vms) {
        total += vm.ThroughputTps();
      }
      // Mega-updates/s per VM.
      row.push_back(
          TablePrinter::Fmt(total / static_cast<double>(result.vms.size()) / 1e6, 3));
    }
    table.AddRow(row);
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper): demeter-balloon ~= static for every policy;\n"
      "virtio-balloon well below both (FMEM under-provisioning).\n");
  return 0;
}

}  // namespace
}  // namespace demeter

int main(int argc, char** argv) { return demeter::Run(argc, argv); }
