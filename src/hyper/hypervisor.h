// Hypervisor: owns host tiered memory and VMs; populates EPTs lazily;
// provides the MMU-notifier interface hypervisor-based TMM designs use and
// the host-side page migration they perform.

#ifndef DEMETER_SRC_HYPER_HYPERVISOR_H_
#define DEMETER_SRC_HYPER_HYPERVISOR_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/units.h"
#include "src/fault/fault.h"
#include "src/hyper/vm.h"
#include "src/mem/host_memory.h"
#include "src/sim/event_queue.h"
#include "src/swap/swap_device.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/tracer.h"

namespace demeter {

class Hypervisor {
 public:
  struct Stats {
    uint64_t ept_populates = 0;
    uint64_t ept_unbacks = 0;
    uint64_t host_tier_fallbacks = 0;  // Desired tier dry; spilled.
    uint64_t host_migrations = 0;
  };

  // hwpoison/MCE accounting (`host/poison/*`).
  struct PoisonStats {
    uint64_t events = 0;             // Uncorrectable errors surfaced.
    uint64_t frames_offlined = 0;    // Frames permanently retired.
    uint64_t clean_recoveries = 0;   // Clean page: silently re-backed.
    uint64_t sigbus_deliveries = 0;  // Dirty page: guest told to discard.
    uint64_t pages_lost = 0;         // Guest work discarded by SIGBUS.
    uint64_t bad_destination = 0;    // Tripwire: allocator handed out a
                                     // poisoned frame (must stay 0).
  };

  // Per-tier hot-shrink accounting (`host/tier<i>/shrink_*`).
  struct TierShrinkStats {
    uint64_t windows = 0;          // Shrink windows entered.
    uint64_t carved_pages = 0;     // Free frames carved (cumulative).
    uint64_t evictions = 0;        // Pages emergency-migrated off-tier.
    uint64_t shortfall_pages = 0;  // Carve target never reached by close.
    uint64_t backpressure = 0;     // Guest promotions refused mid-window.
  };

  Hypervisor(HostMemory* memory, EventQueue* events);

  HostMemory& memory() { return *memory_; }
  EventQueue& events() { return *events_; }

  Vm& CreateVm(const VmConfig& config);
  int num_vms() const { return static_cast<int>(vms_.size()); }
  Vm& vm(int i) { return *vms_[static_cast<size_t>(i)]; }
  const Vm& vm(int i) const { return *vms_[static_cast<size_t>(i)]; }

  // Host tier that should back gPA pages of guest NUMA node `node` (identity
  // mapping: node i <-> tier i).
  TierIndex TierForNode(int node) const { return node; }

  // Guest NUMA node owning a gPA under `vm`'s layout.
  int NodeOfGpa(const Vm& vm, PageNum gpa) const;

  // EPT-fault service: backs `gpa` with a frame from the matching tier
  // (spilling to another tier under host memory pressure; the far swap
  // tier, when present, is last in the chain and a placement there opens a
  // swap slot at `now`). Returns the frame, or kInvalidFrame on host OOM.
  FrameId PopulateEpt(Vm& vm, PageNum gpa, Nanos now = 0);

  // Frees the backing of `gpa` (balloon inflation / free-page reporting).
  // Safe to call for never-backed pages. When `flush` is true a full EPT
  // invalidation is issued (the hypervisor has no gVA for this page).
  void UnbackGpa(Vm& vm, PageNum gpa, bool flush);

  // Host-side migration of one backed gPA to `dst_tier` (used by
  // hypervisor-based TMM). Does NOT flush; callers batch migrations and
  // issue one full flush per batch via vm.FullFlushAll(). Returns false if
  // the page is unbacked or the destination tier is exhausted. On a
  // three-tier host this is also the swap boundary: migrating out of
  // kSwapTier pays the device swap-in (slot released), migrating into it
  // enqueues the async writeback (slot opened).
  bool MigrateGpa(Vm& vm, PageNum gpa, TierIndex dst_tier, Nanos now, double* cost_ns);

  // ---- far swap tier ------------------------------------------------------
  // Creates the swap device backing kSwapTier. Call once before any VM
  // touches memory, and only on hosts with more than kSwapTier tiers; the
  // device consults the bound fault injector (swapfail), so bind that
  // first. Two-tier hosts never call this and swap() stays null.
  void EnableSwap(const SwapDeviceConfig& config);
  SwapDevice* swap() const { return swap_.get(); }

  // Promotion target for a hot swap-in: FMEM when it has free pages beyond
  // the shrink reserve and is not mid-shrink (the level-skip promotion),
  // else SMEM.
  TierIndex SwapInTarget() const;

  // Swaps one backed gPA out of kSwapTier into SwapInTarget() (falling back
  // to the other non-swap tier). Returns false when no destination has a
  // free frame — the page then stays far and is accessed in place.
  bool SwapInGpa(Vm& vm, PageNum gpa, Nanos now, double* cost_ns);

  // MMU-notifier-style scan over a VM's EPT: visits every backed gPA with
  // its pre-clear Accessed bit and clears the bits. The hypervisor cannot
  // know which gVAs map these gPAs, so re-arming observation requires the
  // full EPT invalidation the paper measures (Table 1); this helper issues
  // it. Returns the number of PTEs touched (for cost accounting).
  using EptVisitor = std::function<void(PageNum gpa, FrameId frame, bool accessed)>;
  uint64_t ScanEptAccessedAndFlush(Vm& vm, const EptVisitor& visitor);

  // ---- hwpoison (uncorrectable memory error) ------------------------------
  // Machine-check handler for an error in the frame backing `vpn` of
  // `process` on `vm`: offline the frame (EPT unmap + single-gVA shootdown
  // + HostMemory::Poison), then recover — a clean page (EPT dirty bit
  // unset) is re-backed transparently from its logical copy; a dirty page
  // costs a simulated SIGBUS that the guest kernel handles by discarding
  // the page (the lost work is counted). Returns the CPU cost in ns.
  double OnMemoryError(Vm& vm, GuestProcess& process, PageNum vpn, Nanos now);

  // ---- tier capacity hot-shrink -------------------------------------------
  // Arms the `tiershrink=` schedule from the bound fault injector: window
  // open/close events per configured tier. Call once, before the run.
  void ArmTierShrink();

  // True while tier `t` is inside a shrink window. Promotion paths use this
  // as backpressure: new placements into a shrinking tier are refused.
  bool TierUnderShrink(TierIndex t) const;

  // Records one refused guest promotion against tier `t`'s window.
  void CountShrinkBackpressure(TierIndex t);

  // Pages of tier `t` the armed shrink schedule will carve at each window
  // open (ceil(frac * capacity)); 0 when no schedule covers `t`. Promotion
  // engines keep this many frames free so windows carve idle capacity
  // instead of evicting the pages that were just promoted.
  uint64_t ShrinkReservePages(TierIndex t) const;

  // ---- VM lifecycle -------------------------------------------------------
  // Releases every resource a departing VM holds: all process GPT mappings
  // and guest-physical pages (rmap drains to empty), every EPT backing
  // (frames return to their tiers), and one full TLB invalidation per vCPU
  // so no stale translation for the departed address space survives. The
  // emptied structures keep their storage until Vm::ReleaseStorage.
  struct ReclaimResult {
    uint64_t gpt_unmapped = 0;
    uint64_t gpa_freed = 0;
    uint64_t ept_unbacked = 0;
  };
  ReclaimResult ReclaimVm(Vm& vm);

  const Stats& stats() const { return stats_; }
  const PoisonStats& poison_stats() const { return poison_stats_; }
  const TierShrinkStats& shrink_stats(TierIndex t) const {
    return shrink_[static_cast<size_t>(t)].stats;
  }

  // Optional tracer shared by the host and every VM-side subsystem (set by
  // the owning harness before VMs are created; null = not tracing).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

  // Optional fault injector shared the same way (set before VMs are
  // created; null = fault-free, and every hook stays inert).
  void set_fault_injector(FaultInjector* injector) { fault_injector_ = injector; }
  FaultInjector* fault_injector() const { return fault_injector_; }

  // Registers host-side counters under `scope` (the harness passes "host"):
  // hypervisor stats plus per-tier used/free page gauges.
  void RegisterMetrics(MetricScope scope);

 private:
  struct ShrinkState {
    bool active = false;
    uint64_t target_pages = 0;  // Carve goal for the current window.
    TierShrinkStats stats;
  };

  // Checks a freshly allocated frame against the poison tripwire; returns
  // the frame unchanged. Poisoned frames never re-enter a free list, so a
  // non-zero bad_destination counter means that guarantee broke.
  FrameId CheckDestination(FrameId frame);

  void BeginShrinkWindow(TierIndex t, Nanos now);
  void EndShrinkWindow(TierIndex t, Nanos now);
  // One bounded emergency-eviction batch; reschedules itself while the
  // carve target is unmet and progress is still possible.
  void RunShrinkBatch(TierIndex t, Nanos now);

  HostMemory* memory_;
  EventQueue* events_;
  Tracer* tracer_ = nullptr;
  FaultInjector* fault_injector_ = nullptr;
  std::unique_ptr<SwapDevice> swap_;
  std::vector<std::unique_ptr<Vm>> vms_;
  Stats stats_;
  PoisonStats poison_stats_;
  std::array<ShrinkState, 2> shrink_;
};

}  // namespace demeter

#endif  // DEMETER_SRC_HYPER_HYPERVISOR_H_
