// Extension experiments beyond the paper's figures:
//
// (A) Alternative guest-side schemes (§6.3): Demeter's range classifier vs
//     a DAMON-style region monitor vs TPP, all running as guest-delegated
//     policies over the same Demeter-balloon-provisioned VMs. The paper
//     argues DAMON-based tiering keeps the guest-delegation benefit but
//     pays A-bit sampling costs and coarser accuracy.
//
// (B) QoS rebalancing (§3.3): three tenants with weights 4:2:1 run a
//     hotspot workload; the QosManager shifts FMEM toward the
//     high-priority tenant using balloon telemetry. We report per-tenant
//     FMEM and throughput with and without the manager.

#include <cstdio>

#include "bench/common.h"
#include "src/harness/table.h"
#include "src/qos/qos_manager.h"

namespace demeter {
namespace {

void RunGuestSchemes(const BenchScale& scale) {
  std::printf("(A) Alternative guest-delegated schemes, XSBench + GUPS\n\n");
  TablePrinter table({"scheme", "xsbench-s", "gups-s", "mgmt-cores", "single-flushes"});
  for (PolicyKind policy : {PolicyKind::kDemeter, PolicyKind::kDamon, PolicyKind::kTpp}) {
    double elapsed[2];
    double cores = 0.0;
    uint64_t flushes = 0;
    const char* workloads[2] = {"xsbench", "gups"};
    for (int w = 0; w < 2; ++w) {
      Machine machine(HostFor(scale, 1));
      VmSetup setup = SetupFor(scale, workloads[w], policy);
      setup.provision = ProvisionMode::kDemeterBalloon;
      machine.AddVm(setup);
      machine.Run();
      elapsed[w] = machine.result(0).elapsed_s;
      if (w == 1) {
        cores = machine.result(0).MgmtCores();
        flushes = machine.result(0).tlb.single_flushes;
      }
    }
    table.AddRow({PolicyKindName(policy), TablePrinter::Fmt(elapsed[0], 3),
                  TablePrinter::Fmt(elapsed[1], 3), TablePrinter::Fmt(cores, 3),
                  TablePrinter::Fmt(flushes)});
  }
  table.Print();
  std::printf("\n");
}

void RunQos(const BenchScale& scale) {
  std::printf("(B) Priority-weighted FMEM rebalancing (weights 4:2:1)\n");
  std::printf("    tenant 0: gups-hot (hot set ~2.3x its FMEM share — demands more)\n");
  std::printf("    tenants 1-2: bwaves (streaming, little to promote — donors)\n\n");
  TablePrinter table({"config", "tenant", "workload", "weight", "fmem-MiB-end",
                      "throughput-Mtps"});

  const char* tenant_workloads[3] = {"gups-hot", "bwaves", "bwaves"};
  for (bool with_qos : {false, true}) {
    BenchScale local = scale;
    local.transactions = scale.transactions;
    Machine machine(HostFor(local, 3));
    const double weights[3] = {4.0, 2.0, 1.0};
    for (int v = 0; v < 3; ++v) {
      VmSetup setup = SetupFor(local, tenant_workloads[v], PolicyKind::kDemeter);
      setup.provision = ProvisionMode::kDemeterBalloon;
      machine.AddVm(setup);
    }
    // Attach the QoS manager before the run; it polls balloon telemetry on
    // the same event queue the workloads advance.
    std::unique_ptr<QosManager> qos;
    if (with_qos) {
      const uint64_t budget = machine.hypervisor().memory().CapacityPages(kFmemTier);
      QosConfig qconfig;
      qconfig.period = 50 * kMillisecond;
      qos = std::make_unique<QosManager>(budget, qconfig);
      for (int v = 0; v < 3; ++v) {
        qos->AddTenant(&machine.vm(v), machine.demeter_balloon(v), weights[v]);
      }
      qos->Start(&machine.events(), 0);
    }
    machine.Run();
    if (qos != nullptr) {
      qos->Stop();
    }
    for (int v = 0; v < 3; ++v) {
      table.AddRow({with_qos ? "qos" : "no-qos", TablePrinter::Fmt(static_cast<uint64_t>(v)),
                    tenant_workloads[v], TablePrinter::Fmt(weights[v], 0),
                    TablePrinter::Fmt(static_cast<double>(machine.vm(v).kernel()
                                                              .node(0)
                                                              .present_pages() *
                                                          kPageSize) /
                                          static_cast<double>(kMiB),
                                      1),
                    TablePrinter::Fmt(machine.result(v).ThroughputTps() / 1e6, 3)});
    }
  }
  table.Print();
  std::printf(
      "\nExpected: with QoS, the weight-4 tenant ends with more FMEM and higher\n"
      "throughput; the weight-1 tenant donates (bounded by its guarantee).\n");
}

int Run(int argc, char** argv) {
  const BenchScale scale = BenchScale::FromArgs(argc, argv, BenchKind::kDirect);
  RunGuestSchemes(scale);
  RunQos(scale);
  return 0;
}

}  // namespace
}  // namespace demeter

int main(int argc, char** argv) { return demeter::Run(argc, argv); }
