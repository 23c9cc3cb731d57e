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

#include "bench/common.h"
#include "src/harness/table.h"

namespace demeter {
namespace {

double Throughput(const BenchScale& base, ProvisionMode mode, PolicyKind policy) {
  BenchScale scale = base;
  scale.transactions *= 2;  // Long runs: provisioning effects in steady state.
  Machine machine(HostFor(scale, scale.concurrent_vms));
  for (int v = 0; v < scale.concurrent_vms; ++v) {
    VmSetup setup = SetupFor(scale, "gups", policy);
    setup.provision = mode;
    machine.AddVm(setup);
  }
  machine.Run();
  double total = 0.0;
  for (int v = 0; v < machine.num_vms(); ++v) {
    total += machine.result(v).ThroughputTps();
  }
  return total / machine.num_vms() / 1e6;  // Mega-updates/s per VM.
}

int Run(int argc, char** argv) {
  const BenchScale scale = BenchScale::FromArgs(argc, argv, BenchKind::kDirect);
  std::printf("Figure 6: GUPS throughput by provisioning technique (M txn/s per VM, %d VMs)\n\n",
              scale.concurrent_vms);
  TablePrinter table({"provisioning", "static-policy", "tpp", "demeter"});
  for (ProvisionMode mode : {ProvisionMode::kStatic, ProvisionMode::kVirtioBalloon,
                             ProvisionMode::kDemeterBalloon, ProvisionMode::kHotplug}) {
    table.AddRow({ProvisionModeName(mode),
                  TablePrinter::Fmt(Throughput(scale, mode, PolicyKind::kStatic), 3),
                  TablePrinter::Fmt(Throughput(scale, mode, PolicyKind::kTpp), 3),
                  TablePrinter::Fmt(Throughput(scale, mode, PolicyKind::kDemeter), 3)});
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
