// Guest kernel: NUMA nodes, processes, lazy page-fault allocation, reverse
// map, victim selection, and context-switch hooks.
//
// Lazy first-touch allocation is the mechanism behind Figure 4: physical
// placement follows access order, not spatial order, so locality visible in
// gVA space is destroyed in gPA/hPA space. The kernel allocates from the
// fast node until it runs dry, then falls back to the slow node (Linux
// local-first mempolicy on a tiered topology).

#ifndef DEMETER_SRC_GUEST_KERNEL_H_
#define DEMETER_SRC_GUEST_KERNEL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/base/units.h"
#include "src/fault/fault.h"
#include "src/guest/numa_node.h"
#include "src/guest/process.h"

namespace demeter {

struct RmapEntry {
  int pid = -1;
  PageNum vpn = 0;
};

struct GuestKernelConfig {
  int num_nodes = 2;
  // Per-node gPA span (balloon maximum) and initially present pages.
  std::vector<uint64_t> node_span_pages;
  std::vector<uint64_t> node_present_pages;
  // Non-zero: shuffle each node's free list (allocator fragmentation).
  uint64_t free_list_shuffle_seed = 0;
};

class GuestKernel {
 public:
  struct Stats {
    uint64_t faults = 0;
    uint64_t fallback_allocs = 0;  // Preferred node dry; spilled to another.
    uint64_t reclaim_events = 0;
    uint64_t oom_failures = 0;
    uint64_t sigbus_discards = 0;  // Pages dropped after a host MCE (hwpoison).
  };

  explicit GuestKernel(const GuestKernelConfig& config);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  NumaNode& node(int i) { return nodes_[static_cast<size_t>(i)]; }
  const NumaNode& node(int i) const { return nodes_[static_cast<size_t>(i)]; }

  // Node containing a gPA, or -1.
  int NodeOfGpa(PageNum gpa) const;

  GuestProcess& CreateProcess();
  GuestProcess* process(int pid);
  const std::vector<std::unique_ptr<GuestProcess>>& processes() const { return processes_; }

  // Page-fault path: allocates a gPA (fast node first, slow fallback), maps
  // vpn -> gpa in the process GPT, and records the reverse mapping.
  // Returns nullopt on OOM. `cost_ns` accumulates extra kernel work
  // (fallback search, reclaim).
  std::optional<PageNum> HandleFault(GuestProcess& process, PageNum vpn, double* cost_ns);

  // Live-migration restore: like the fault path, but the node preference
  // comes from the source host's placement instead of first-touch policy,
  // and no fault is counted (the guest never faulted — the page arrived
  // mapped). Falls back across nodes when the preferred one is dry.
  std::optional<PageNum> AdoptPage(GuestProcess& process, PageNum vpn, int preferred_node,
                                   double* cost_ns);

  // Raw allocation with fallback; used by fault path and by migration.
  // `preferred` only (no fallback) when `allow_fallback` is false.
  std::optional<PageNum> AllocGpa(int preferred_node, bool allow_fallback, double* cost_ns);
  void FreeGpa(PageNum gpa);

  // SIGBUS handler for an uncorrectable host memory error: drops the
  // mapping and the page (contents are gone; a later touch refaults onto a
  // fresh zero page). Mirrors Linux's memory_failure() -> kill path.
  void DiscardPage(GuestProcess& process, PageNum vpn, PageNum gpa);

  // Reverse map: gPA -> owning (pid, vpn); nullopt when gPA is free.
  std::optional<RmapEntry> Rmap(PageNum gpa) const;

  // Bookkeeping for migrations: the page previously at old_gpa now lives at
  // new_gpa (same owner).
  void OnPageMoved(PageNum old_gpa, PageNum new_gpa);

  // Bookkeeping for a balanced swap: the owners of gpa_a and gpa_b have been
  // exchanged (contents moved with them).
  void OnPagesSwapped(PageNum gpa_a, PageNum gpa_b);

  // Oldest allocated page in `node` (FIFO — an approximation of inactive-LRU
  // eviction order). Used as the demotion victim source by reclaim.
  std::optional<PageNum> PickVictim(int node);

  // Context-switch hooks (Demeter's PEBS drain attaches here). The returned
  // double is extra CPU cost in ns charged to the switching vCPU.
  using CtxHook = std::function<double(int vcpu, Nanos now)>;
  void RegisterContextSwitchHook(CtxHook hook) { ctx_hooks_.push_back(std::move(hook)); }
  double OnContextSwitch(int vcpu, Nanos now);

  const Stats& stats() const { return stats_; }

  // Wires the shared fault injector (null = fault-free). With an injector,
  // AllocGpa's preferred-node attempt can transiently fail (tier
  // exhaustion), exercising the fallback / reclaim machinery.
  void BindFault(FaultInjector* fault, int vm_id) {
    fault_ = fault;
    vm_id_ = vm_id;
  }

  // Total pages currently mapped by any process (== rmap entries).
  uint64_t mapped_pages() const { return mapped_pages_; }

  // Frees the rmap arrays, the allocation FIFOs and every process's GPT
  // nodes once the VM has left its host and maps nothing. Rmap and
  // PickVictim then return nullopt, as they did on the emptied kernel; the
  // nodes, processes and stats stay.
  void ReleaseStorage();

 private:
  // A reverse-map slot packs (pid << kRmapVpnBits) | vpn; 0 is a free gPA,
  // since pids start at 1.
  static constexpr int kRmapVpnBits = PageTable::kLevels * PageTable::kBitsPerLevel;

  void RecordAlloc(PageNum gpa, int pid, PageNum vpn);
  // Appends `gpa` to its node's allocation FIFO.
  void PushAllocated(PageNum gpa);
  // Slot of `gpa` in its node's reverse map, or nullptr past its end.
  const uint64_t* RmapSlot(PageNum gpa) const;
  // Writes a slot, growing its node's reverse map to reach `gpa`.
  void SetRmap(PageNum gpa, uint64_t packed);

  GuestKernelConfig config_;
  std::vector<NumaNode> nodes_;
  std::vector<std::unique_ptr<GuestProcess>> processes_;
  // Reverse map, one flat array per node indexed by the gPA's offset in the
  // node; each grows to the highest offset mapped so far (its capacity
  // doubles up to the node's span).
  std::vector<std::vector<uint64_t>> rmap_;
  uint64_t mapped_pages_ = 0;
  // Per-node allocation FIFO for victim selection, as 32-bit offsets in
  // the node (NumaNode bounds a span to 2^32 pages); lazily pruned.
  std::vector<std::deque<uint32_t>> alloc_fifo_;
  std::vector<CtxHook> ctx_hooks_;
  FaultInjector* fault_ = nullptr;
  int vm_id_ = 0;
  Stats stats_;
};

}  // namespace demeter

#endif  // DEMETER_SRC_GUEST_KERNEL_H_
