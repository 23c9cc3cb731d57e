// Figure 11: the real-world workload suite with emulated CXL.mem (remote
// DRAM) as the slow tier, following Pond's emulation methodology.
//
// Paper shapes: CXL narrows the tier gap (121.9 ns vs PMEM's 176.6 ns), so
// all improvements shrink; Demeter keeps a >=10% edge over TPP on the
// hotspot workloads (Silo, LibLinear, XSBench).

#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace demeter;
  RunWorkloadFigure(BenchScale::FromArgs(argc, argv), SmemKind::kCxl, /*with_htpp=*/false,
                    "Figure 11: real-world workloads, DRAM + emulated CXL.mem (execution time, s)",
                    "Geomean speedup of Demeter (CXL tier narrows all gaps):");
  return 0;
}
