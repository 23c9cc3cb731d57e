// Figure 10 (and §5.4): average execution time across the seven real-world
// workloads on DRAM + PMEM tiering, for every guest-delegated design plus
// the hypervisor-based TPP-H and unmanaged first-touch placement.
//
// Paper shapes to reproduce: Demeter best or second-best everywhere, up to
// 2.2x over the worst alternative and ~28% geomean over the next-best
// guest design (TPP); Nomad consistently worst (migration thrashing);
// Memtis weak on static-hotspot workloads; TPP closest on graph workloads;
// TPP-H behind its guest-based counterpart on most workloads (§5.4).

#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace demeter;
  RunWorkloadFigure(BenchScale::FromArgs(argc, argv), SmemKind::kPmem, /*with_htpp=*/true,
                    "Figure 10: real-world workloads, DRAM + PMEM (execution time, seconds)",
                    // Paper: +28% vs TPP, +16% vs hypervisor-based.
                    "Geomean speedup of Demeter:");
  return 0;
}
