#include "src/fault/invariant_checker.h"

#include <unordered_map>
#include <unordered_set>

#include "src/hyper/hypervisor.h"
#include "src/hyper/vm.h"

namespace demeter {

namespace {

// Formatting helper: "vm2: " prefix for every per-VM violation.
std::string VmPrefix(int vm) { return "vm" + std::to_string(vm) + ": "; }

}  // namespace

void InvariantChecker::CheckHostFencing(const std::vector<bool>& down,
                                        const std::vector<int>& active_vms,
                                        const std::vector<RouteEntry>& routes,
                                        InvariantReport* report) {
  for (size_t h = 0; h < down.size(); ++h) {
    if (!down[h]) {
      continue;
    }
    const std::string host = "host" + std::to_string(h);
    if (h < active_vms.size() && active_vms[h] > 0) {
      report->violations.push_back(host + ": down but still runs " +
                                   std::to_string(active_vms[h]) + " active VM(s)");
    }
    for (const RouteEntry& route : routes) {
      if (route.src_host == static_cast<int>(h) || route.dst_host == static_cast<int>(h)) {
        report->violations.push_back(host + ": down but an in-flight migration routes " +
                                     std::to_string(route.src_host) + " -> " +
                                     std::to_string(route.dst_host));
      }
    }
  }
}

void InvariantChecker::CheckRestartConservation(uint64_t killed, uint64_t restarted,
                                                uint64_t queued, uint64_t lost,
                                                InvariantReport* report) {
  if (killed != restarted + queued + lost) {
    report->violations.push_back(
        "restart ledger: killed " + std::to_string(killed) + " != restarted " +
        std::to_string(restarted) + " + queued " + std::to_string(queued) + " + lost " +
        std::to_string(lost));
  }
}

std::string InvariantReport::Join(size_t max_items) const {
  std::string joined;
  for (size_t i = 0; i < violations.size() && i < max_items; ++i) {
    if (!joined.empty()) {
      joined += "; ";
    }
    joined += violations[i];
  }
  if (violations.size() > max_items) {
    joined += "; ... (" + std::to_string(violations.size() - max_items) + " more)";
  }
  return joined;
}

InvariantReport InvariantChecker::Check(Hypervisor& hyper, const std::vector<VmView>& views) {
  InvariantReport report;
  HostMemory& memory = hyper.memory();
  SwapDevice* swap = hyper.swap();
  // Frames claimed by any VM's EPT, for global uniqueness (4).
  std::unordered_map<FrameId, int> frame_owner;
  std::vector<uint64_t> tier_mapped(static_cast<size_t>(memory.num_tiers()), 0);

  for (int i = 0; i < hyper.num_vms(); ++i) {
    Vm& vm = hyper.vm(i);
    GuestKernel& kernel = vm.kernel();
    const std::string prefix = VmPrefix(i);
    const bool departed =
        static_cast<size_t>(i) < views.size() && views[static_cast<size_t>(i)].departed;

    // ---- 1 + 2: GPT <-> rmap and node accounting -------------------------
    uint64_t node_mapped[2] = {0, 0};
    uint64_t gpt_total = 0;
    for (const auto& process : kernel.processes()) {
      const int pid = process->pid();
      process->gpt().ForEachPresent(
          0, PageTable::kMaxPage, [&](PageNum vpn, uint64_t gpa, bool, bool) {
            ++gpt_total;
            ++report.gpt_pages_audited;
            const int node = kernel.NodeOfGpa(gpa);
            if (node < 0) {
              report.violations.push_back(prefix + "pid " + std::to_string(pid) + " vpn " +
                                          std::to_string(vpn) + " maps gpa " +
                                          std::to_string(gpa) + " outside every node span");
              return;
            }
            ++node_mapped[static_cast<size_t>(node)];
            const std::optional<RmapEntry> rmap = kernel.Rmap(gpa);
            if (!rmap.has_value() || rmap->pid != pid || rmap->vpn != vpn) {
              report.violations.push_back(prefix + "rmap for gpa " + std::to_string(gpa) +
                                          " does not name (pid " + std::to_string(pid) +
                                          ", vpn " + std::to_string(vpn) + ")");
            }
          });
    }
    if (gpt_total != kernel.mapped_pages()) {
      // Every GPT entry matched a distinct rmap entry above, so a size
      // mismatch can only mean orphaned rmap entries.
      report.violations.push_back(prefix + "rmap holds " + std::to_string(kernel.mapped_pages()) +
                                  " entries but GPTs map " + std::to_string(gpt_total) +
                                  " pages");
    }
    for (int n = 0; n < kernel.num_nodes() && n < 2; ++n) {
      const NumaNode& node = kernel.node(n);
      if (node.used_pages() != node_mapped[static_cast<size_t>(n)]) {
        report.violations.push_back(prefix + "node " + std::to_string(n) + " used_pages " +
                                    std::to_string(node.used_pages()) + " != mapped count " +
                                    std::to_string(node_mapped[static_cast<size_t>(n)]));
      }
      // ---- 3: balloon page conservation ---------------------------------
      const uint64_t held = static_cast<size_t>(i) < views.size()
                                ? views[static_cast<size_t>(i)].held_pages[static_cast<size_t>(n)]
                                : 0;
      if (!departed && node.present_pages() + held != node.initial_present_pages()) {
        report.violations.push_back(
            prefix + "node " + std::to_string(n) + " conservation: present " +
            std::to_string(node.present_pages()) + " + held " + std::to_string(held) +
            " != provisioned " + std::to_string(node.initial_present_pages()));
      }
    }

    // ---- 4: EPT <-> host accounting --------------------------------------
    uint64_t vm_swap_mapped = 0;
    vm.ept().ForEachPresent(0, PageTable::kMaxPage, [&](PageNum gpa, uint64_t frame, bool, bool) {
      ++report.ept_pages_audited;
      if (kernel.NodeOfGpa(gpa) < 0) {
        report.violations.push_back(prefix + "EPT backs gpa " + std::to_string(gpa) +
                                    " outside every node span");
      }
      if (frame >= memory.total_frames()) {
        report.violations.push_back(prefix + "EPT maps gpa " + std::to_string(gpa) +
                                    " to out-of-range frame " + std::to_string(frame));
        return;
      }
      // ---- 6: poison containment ----------------------------------------
      if (memory.IsPoisoned(frame)) {
        report.violations.push_back(prefix + "EPT maps gpa " + std::to_string(gpa) +
                                    " to hw-poisoned frame " + std::to_string(frame));
      } else if (!memory.IsAllocated(frame)) {
        report.violations.push_back(prefix + "EPT maps gpa " + std::to_string(gpa) +
                                    " to frame " + std::to_string(frame) +
                                    " the host allocator considers free");
      }
      auto [it, inserted] = frame_owner.emplace(frame, i);
      if (!inserted) {
        report.violations.push_back(prefix + "frame " + std::to_string(frame) +
                                    " double-mapped (also backing vm" +
                                    std::to_string(it->second) + ")");
      }
      const TierIndex tier = memory.TierOf(frame);
      ++tier_mapped[static_cast<size_t>(tier)];
      // ---- 8: swap-slot accounting --------------------------------------
      // Every EPT-backed far-tier frame carries exactly one slot, owned by
      // the mapping VM (slot uniqueness per frame is structural: the device
      // keys slots by frame).
      if (swap != nullptr && tier == kSwapTier) {
        ++vm_swap_mapped;
        if (!swap->HasSlot(frame)) {
          report.violations.push_back(prefix + "swap frame " + std::to_string(frame) +
                                      " backing gpa " + std::to_string(gpa) + " has no slot");
        } else if (swap->SlotOwner(frame) != i) {
          report.violations.push_back(prefix + "swap frame " + std::to_string(frame) +
                                      "'s slot is owned by vm" +
                                      std::to_string(swap->SlotOwner(frame)));
        }
      }
    });
    if (swap != nullptr && swap->ActiveSlotsForVm(i) != vm_swap_mapped) {
      // Covers departed VMs too: zero mapped far pages must mean zero slots
      // (ReclaimVm drains every backing through UnbackGpa's SlotDrop).
      report.violations.push_back(prefix + "swap device holds " +
                                  std::to_string(swap->ActiveSlotsForVm(i)) +
                                  " slots but the EPT maps " + std::to_string(vm_swap_mapped) +
                                  " far-tier pages");
    }

    // ---- 4b: migrations never lose dirty state ---------------------------
    // Remap preserves A/D by construction; the counters make any future
    // regression visible on every --check run, across both dimensions.
    if (vm.ept().remap_dirty_lost() != 0) {
      report.violations.push_back(prefix + "EPT dropped a Dirty bit on " +
                                  std::to_string(vm.ept().remap_dirty_lost()) + " of " +
                                  std::to_string(vm.ept().remap_count()) + " remaps");
    }
    for (const auto& process : kernel.processes()) {
      if (process->gpt().remap_dirty_lost() != 0) {
        report.violations.push_back(prefix + "pid " + std::to_string(process->pid()) +
                                    " GPT dropped a Dirty bit on " +
                                    std::to_string(process->gpt().remap_dirty_lost()) + " of " +
                                    std::to_string(process->gpt().remap_count()) + " remaps");
      }
    }

    // ---- 7: departed-VM emptiness -----------------------------------------
    if (departed) {
      if (kernel.mapped_pages() != 0) {
        report.violations.push_back(prefix + "departed but rmap still holds " +
                                    std::to_string(kernel.mapped_pages()) + " entries");
      }
      for (int n = 0; n < kernel.num_nodes(); ++n) {
        if (kernel.node(n).used_pages() != 0) {
          report.violations.push_back(prefix + "departed but node " + std::to_string(n) +
                                      " still counts " +
                                      std::to_string(kernel.node(n).used_pages()) +
                                      " used pages");
        }
      }
      if (vm.ept().mapped_count() != 0) {
        report.violations.push_back(prefix + "departed but EPT still maps " +
                                    std::to_string(vm.ept().mapped_count()) + " pages");
      }
      uint64_t tlb_live = 0;
      for (int v = 0; v < vm.num_vcpus(); ++v) {
        vm.vcpu(v).tlb.ForEachValid([&](PageNum, FrameId) { ++tlb_live; });
      }
      if (tlb_live != 0) {
        report.violations.push_back(prefix + "departed but " + std::to_string(tlb_live) +
                                    " TLB entries are still live");
      }
    }

    // ---- 5: TLB validity --------------------------------------------------
    for (int v = 0; v < vm.num_vcpus(); ++v) {
      vm.vcpu(v).tlb.ForEachValid([&](PageNum vpn, FrameId frame) {
        ++report.tlb_entries_audited;
        for (const auto& process : kernel.processes()) {
          const auto gpt = process->gpt().Lookup(vpn);
          if (!gpt.present) {
            continue;
          }
          const auto ept = vm.ept().Lookup(gpt.target);
          if (ept.present && ept.target == frame) {
            return;  // Entry agrees with a live translation.
          }
        }
        report.violations.push_back(prefix + "vcpu " + std::to_string(v) +
                                    " TLB caches stale vpn " + std::to_string(vpn) +
                                    " -> frame " + std::to_string(frame));
      });
    }
  }

  // Allocated frames and EPT-backed frames are in bijection, so per-tier
  // mapped counts must equal the allocator's used counts.
  for (TierIndex t = 0; t < memory.num_tiers(); ++t) {
    if (tier_mapped[static_cast<size_t>(t)] != memory.UsedPages(t)) {
      report.violations.push_back("tier " + std::to_string(t) + " allocator reports " +
                                  std::to_string(memory.UsedPages(t)) +
                                  " used frames but EPTs map " +
                                  std::to_string(tier_mapped[static_cast<size_t>(t)]));
    }
  }
  // 8 (global): with per-frame and per-VM slot checks above, a total mismatch
  // can only mean leaked slots — frames freed without SlotDrop.
  if (swap != nullptr && swap->ActiveSlots() != memory.UsedPages(kSwapTier)) {
    report.violations.push_back("swap device holds " + std::to_string(swap->ActiveSlots()) +
                                " slots but tier " + std::to_string(kSwapTier) + " has " +
                                std::to_string(memory.UsedPages(kSwapTier)) +
                                " used frames (slot leak)");
  }
  return report;
}

}  // namespace demeter
