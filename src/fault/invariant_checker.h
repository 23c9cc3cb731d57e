// Cross-layer invariant audit over a live simulated host.
//
// The simulation maintains redundant state on purpose — GPT and reverse map,
// per-node free lists and present counts, EPT mappings and per-tier frame
// allocators, TLB entries caching flattened translations. The checker walks
// all of it and cross-validates:
//
//   1. GPT <-> rmap consistency: every present GPT mapping targets a gPA
//      inside a node span, and the reverse map names exactly that (pid, vpn);
//      the rmap has no orphan entries.
//   2. Guest node accounting: each node's used_pages equals the number of
//      mapped gPAs it contains.
//   3. Balloon page conservation: present + provisioner-held == the node's
//      boot-time present size, per node (inflated + resident = provisioned).
//   4. EPT <-> host accounting: every backed gPA maps a frame that the host
//      allocator marks allocated; no frame backs two gPAs (within or across
//      VMs); per-tier mapped counts equal HostMemory::UsedPages.
//   5. TLB validity: every valid TLB entry agrees with the current GPT∘EPT
//      composition of some process in the owning VM.
//   6. Poison containment: no EPT leaf maps a frame HostMemory has marked
//      hw-poisoned (offlined frames must be unmapped before the audit).
//   7. Departed-VM emptiness: a VM the harness removed mid-run holds
//      nothing — zero rmap entries, zero node used_pages, zero EPT
//      mappings, zero live TLB entries.
//   8. Swap-slot accounting (three-tier hosts): every EPT-backed far-tier
//      frame has exactly one device slot owned by the mapping VM; each VM's
//      slot count equals its mapped far-tier pages (so a departed VM holds
//      zero slots after ReclaimVm); the device's total slot count equals the
//      far tier's used frames — any excess is a leaked slot.
//   9. Down-host fencing (fleet-level, CheckHostFencing): a fail-stopped
//      host holds nothing the control plane could act on — zero active VMs
//      and zero in-flight migration routes touching it (either endpoint).
//  10. Restart-ledger conservation (fleet-level,
//      CheckRestartConservation): every VM kill resolves to exactly one
//      recovery outcome, killed == restarted + queued + lost.
//
// The audit is strictly read-only (const page-table walks; never the
// A/D-clearing scan) and runs between events, so it cannot perturb the
// simulation, like capture_trace.

#ifndef DEMETER_SRC_FAULT_INVARIANT_CHECKER_H_
#define DEMETER_SRC_FAULT_INVARIANT_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace demeter {

class Hypervisor;

struct InvariantReport {
  std::vector<std::string> violations;
  uint64_t gpt_pages_audited = 0;
  uint64_t ept_pages_audited = 0;
  uint64_t tlb_entries_audited = 0;

  bool ok() const { return violations.empty(); }
  // First `max_items` violations joined for DEMETER_CHECK messages.
  std::string Join(size_t max_items = 8) const;
};

class InvariantChecker {
 public:
  // Per-VM provisioner holdings, assembled by the harness: pages the
  // balloon / hotplug device currently holds out of each guest node.
  struct VmView {
    uint64_t held_pages[2] = {0, 0};
    // The harness removed this VM mid-run: it must hold no memory at all,
    // and balloon conservation no longer applies (the guest is gone).
    bool departed = false;
  };

  // Audits every VM of `hyper`. `views` is indexed by VM id; missing
  // entries mean "no provisioner holdings" (static provisioning).
  static InvariantReport Check(Hypervisor& hyper, const std::vector<VmView>& views);

  // One in-flight migration route for invariant 9 (dst_vm omitted — the
  // destination index exists only after stop-and-copy). Plain data: the
  // fault layer audits what the migrator reports without depending on
  // cluster types.
  struct RouteEntry {
    int src_host = -1;
    int dst_host = -1;
  };

  // Invariant 9: for every host flagged down in `down` (indexed by host),
  // appends a violation when that host still has active VMs
  // (`active_vms[host]` > 0) or appears at either end of an in-flight
  // `route`.
  static void CheckHostFencing(const std::vector<bool>& down,
                               const std::vector<int>& active_vms,
                               const std::vector<RouteEntry>& routes,
                               InvariantReport* report);

  // Invariant 10: killed == restarted + queued + lost, where `queued` is
  // the restart queue's current depth. Violated either way the ledger
  // leaks (a kill with no recorded outcome, or an outcome with no kill).
  static void CheckRestartConservation(uint64_t killed, uint64_t restarted, uint64_t queued,
                                       uint64_t lost, InvariantReport* report);
};

}  // namespace demeter

#endif  // DEMETER_SRC_FAULT_INVARIANT_CHECKER_H_
