#include "src/tmm/policy_util.h"

#include "src/hyper/hypervisor.h"

namespace demeter {

std::vector<std::pair<PageNum, PageNum>> TrackedPageRanges(const GuestProcess& process) {
  std::vector<std::pair<PageNum, PageNum>> ranges;
  for (const Vma& vma : process.space().vmas()) {
    if (vma.tracked && vma.size() > 0) {
      ranges.emplace_back(PageOf(vma.start), PageOf(vma.end));
    }
  }
  return ranges;
}

uint64_t DemoteForHeadroom(Vm& vm, uint64_t count, Nanos now, double* cost_ns) {
  GuestKernel& kernel = vm.kernel();
  uint64_t demoted = 0;
  while (demoted < count) {
    auto victim = kernel.PickVictim(0);
    if (!victim.has_value()) {
      break;
    }
    const std::optional<RmapEntry> rmap = kernel.Rmap(*victim);
    GuestProcess* proc = kernel.process(rmap->pid);
    if (proc == nullptr || !vm.MovePage(*proc, rmap->vpn, /*dst_node=*/1, now, cost_ns)) {
      break;
    }
    ++demoted;
  }
  return demoted;
}

bool PromotionThrottled(Vm& vm) {
  return vm.host().TierUnderShrink(vm.host().TierForNode(0));
}

bool SwapBacked(Vm& vm, const GuestProcess& process, PageNum vpn) {
  if (vm.host().swap() == nullptr) {
    return false;
  }
  const auto gpt = process.gpt().Lookup(vpn);
  if (!gpt.present) {
    return false;
  }
  const auto ept = vm.ept().Lookup(gpt.target);
  return ept.present && vm.host().memory().TierOf(ept.target) == kSwapTier;
}

uint64_t FarDemoteForHeadroom(Vm& vm, uint64_t count, Nanos now, double* cost_ns) {
  Hypervisor& host = vm.host();
  if (host.swap() == nullptr || count == 0) {
    return 0;
  }
  HostMemory& memory = host.memory();
  // Clock-style cold scan over the EPT: an entry whose A bit is still set
  // since the previous call is hot — clear the bit so the next call can
  // observe it afresh; an entry whose bit stayed clear is a cold SMEM
  // victim. Guest-side policies never touch EPT A bits, so without the
  // clearing half nothing would ever look cold here. The bit-clears and
  // remaps become visible with one batched invept (charged below), the
  // same flush an MMU-notifier scan pays.
  std::vector<PageNum> victims;
  uint64_t cleared = 0;
  vm.ept().ScanAndClearAccessed(0, PageTable::kMaxPage,
                                [&](PageNum gpa, uint64_t frame, bool accessed, bool) {
                                  if (accessed) {
                                    ++cleared;
                                    return;
                                  }
                                  if (victims.size() < count &&
                                      memory.TierOf(static_cast<FrameId>(frame)) == kSmemTier) {
                                    victims.push_back(gpa);
                                  }
                                });
  uint64_t moved = 0;
  for (PageNum gpa : victims) {
    if (host.MigrateGpa(vm, gpa, kSwapTier, now, cost_ns)) {
      ++moved;
    }
  }
  if (cleared + moved > 0) {
    vm.FullFlushAll();
    *cost_ns += vm.FullFlushCost();
  }
  return moved;
}

}  // namespace demeter
