// Figure 4: guest physical vs guest virtual address-space heat maps for the
// LibLinear workload (DAMON-style profiling).
//
// Paper shape: in gVA space, hot accesses concentrate in a small contiguous
// band (the model vector); in gPA space the same accesses scatter across the
// whole usable range, because lazy first-touch allocation orders physical
// placement by access time, not spatial locality.

#include <cstdio>
#include <vector>

#include "bench/common.h"

namespace demeter {
namespace {

constexpr int kAddrBins = 48;
constexpr int kTimeBins = 16;

void PrintHeatmap(const char* title, const std::vector<std::vector<uint64_t>>& grid) {
  std::printf("%s\n", title);
  std::printf("  (rows: time ->; cols: address space low..high; darker = hotter)\n");
  uint64_t max_count = 1;
  for (const auto& row : grid) {
    for (uint64_t c : row) {
      max_count = std::max(max_count, c);
    }
  }
  const char* shades = " .:-=+*#%@";
  for (const auto& row : grid) {
    std::printf("  |");
    for (uint64_t c : row) {
      const int shade = static_cast<int>(9.0 * static_cast<double>(c) /
                                         static_cast<double>(max_count));
      std::printf("%c", shades[shade]);
    }
    std::printf("|\n");
  }
}

int Run(int argc, char** argv) {
  const BenchScale scale = BenchScale::FromArgs(argc, argv, BenchKind::kDirect);
  std::printf("Figure 4: LibLinear access heat maps, gVA vs gPA space\n\n");

  Machine machine(HostFor(scale, 1));
  VmSetup setup = SetupFor(scale, "liblinear", PolicyKind::kStatic);
  machine.AddVm(setup);
  Vm& vm = machine.vm(0);
  GuestProcess& proc = vm.kernel().CreateProcess();
  Workload* workload = machine.workload(0);
  Rng rng(13);
  workload->Setup(proc, rng);

  // Init pass (first-touch placement in allocation order).
  uint64_t va_lo = ~0ULL;
  uint64_t va_hi = 0;
  for (const Vma& vma : proc.space().vmas()) {
    if (!vma.tracked || vma.size() == 0) {
      continue;
    }
    va_lo = std::min(va_lo, vma.start);
    va_hi = std::max(va_hi, vma.end);
    for (uint64_t addr = vma.start; addr < vma.end; addr += kPageSize) {
      vm.ExecuteAccess(0, proc, addr, true);
    }
  }
  const uint64_t gpa_pages = vm.config().total_pages() * 2;  // Both node spans.

  std::vector<std::vector<uint64_t>> va_grid(kTimeBins, std::vector<uint64_t>(kAddrBins, 0));
  std::vector<std::vector<uint64_t>> pa_grid(kTimeBins, std::vector<uint64_t>(kAddrBins, 0));

  std::vector<AccessOp> ops;
  for (int t = 0; t < kTimeBins; ++t) {
    ops.clear();
    workload->NextBatch(0, 60000, rng, &ops);
    for (const AccessOp& op : ops) {
      const int va_bin = static_cast<int>((op.gva - va_lo) * kAddrBins / (va_hi - va_lo));
      va_grid[t][std::min(va_bin, kAddrBins - 1)]++;
      const auto gpt = proc.gpt().Lookup(PageOf(op.gva));
      if (gpt.present) {
        const int pa_bin = static_cast<int>(gpt.target * kAddrBins / gpa_pages);
        pa_grid[t][std::min(pa_bin, kAddrBins - 1)]++;
      }
    }
  }

  PrintHeatmap("Guest VIRTUAL address space (locality preserved):", va_grid);
  std::printf("\n");
  PrintHeatmap("Guest PHYSICAL address space (locality destroyed by lazy allocation):", pa_grid);
  std::printf(
      "\nExpected shape (paper): a tight hot band in gVA space; the same\n"
      "accesses scattered across both NUMA nodes' gPA ranges.\n");
  return 0;
}

}  // namespace
}  // namespace demeter

int main(int argc, char** argv) { return demeter::Run(argc, argv); }
