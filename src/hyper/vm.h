// A virtual machine: vCPUs (TLB + PEBS + virtual clock), a guest kernel,
// and an EPT, wired to host tiered memory through the owning Hypervisor.
//
// The VM exposes the three primitives every TMM design builds on:
//   * ExecuteAccess  — one guest memory access through 2D translation, with
//     lazy guest-fault and EPT-fault handling and tier latency charging
//   * MovePage       — guest-initiated page migration between NUMA nodes
//     (allocate-copy-remap, single-gVA TLB shootdowns)
//   * SwapPages      — Demeter's balanced relocation primitive: exchange the
//     physical placement of two virtual pages with no allocation (§3.2.3)
// plus host-side migration hooks used by hypervisor-based baselines.

#ifndef DEMETER_SRC_HYPER_VM_H_
#define DEMETER_SRC_HYPER_VM_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/base/histogram.h"
#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/guest/kernel.h"
#include "src/guest/process.h"
#include "src/mem/host_memory.h"
#include "src/mmu/page_table.h"
#include "src/mmu/tlb.h"
#include "src/mmu/walker.h"
#include "src/pebs/pebs.h"
#include "src/sim/cpu_account.h"
#include "src/telemetry/metrics.h"
#include "src/workloads/workload.h"

namespace demeter {

class Hypervisor;
class SwapDevice;

struct VmConfig {
  int id = 0;
  int num_vcpus = 4;
  uint64_t total_memory_bytes = 256 * kMiB;
  double fmem_ratio = 0.2;  // FMEM share of total (the paper's default 1:5).
  Nanos context_switch_period = 4 * kMillisecond;
  PebsConfig pebs;
  MmuCosts mmu_costs;
  // Probability an access is served by the CPU cache hierarchy (never
  // reaches memory; latency kL2HitLatencyNs). Workload-dependent.
  double cache_hit_rate = 0.2;
  bool lazily_backed = true;  // EPT populated on first touch (overcommit).
  // When true, both NUMA nodes boot at 100% of total memory (the Demeter
  // balloon configuration, §3.3): a provisioner must balloon them down to
  // the desired composition. When false, nodes boot at fmem/smem sizes.
  bool start_full = false;
  uint64_t rng_seed = 0x5eed;

  uint64_t total_pages() const { return total_memory_bytes / kPageSize; }
  uint64_t fmem_pages() const {
    return static_cast<uint64_t>(fmem_ratio * static_cast<double>(total_pages()));
  }
  uint64_t smem_pages() const { return total_pages() - fmem_pages(); }
};

// The vCPU clock's domain. Virtual time is a plain double advanced by one
// fractional op cost at a time; below 2^48 ns (about 3.26 days) doubles are
// at most 1/32 ns apart, and every run stays far below that. Machine and
// Cluster reject a boot_at, and Machine::AdmitVm an admission time, at or
// above this before the VM runs.
inline constexpr Nanos kVcpuClockLimitNs = Nanos{1} << 48;

struct Vcpu {
  int id = 0;
  double clock_ns = 0.0;  // Local virtual time.
  Tlb tlb;
  std::unique_ptr<PebsUnit> pebs;
  Nanos next_context_switch = 0;

  Nanos now() const { return static_cast<Nanos>(clock_ns); }
};

struct VmStats {
  uint64_t accesses = 0;
  uint64_t writes = 0;
  uint64_t cache_hits = 0;
  uint64_t guest_faults = 0;
  uint64_t ept_faults = 0;
  uint64_t fmem_accesses = 0;
  uint64_t smem_accesses = 0;
  // Far-tier traffic; forever zero on two-tier hosts (and the counters are
  // only registered when the host has a swap device).
  uint64_t swap_accesses = 0;  // Served in place from kSwapTier (no room up).
  uint64_t swap_ins = 0;       // Major faults: page promoted out of swap.
  uint64_t pages_promoted = 0;  // Into node 0.
  uint64_t pages_demoted = 0;   // Out of node 0.
  uint64_t context_switches = 0;
  double total_access_ns = 0.0;
};

struct AccessResult {
  double ns = 0.0;
  bool cache_hit = false;
  TierIndex tier = kFmemTier;
};

// One executed op of a batch: its cost and the vCPU clock right after the
// op landed (already truncated to integer Nanos, i.e. what vcpu.now()
// returned at that instant). The harness replays its per-op transaction
// accounting from these without re-entering the VM.
struct BatchStep {
  double ns = 0.0;
  Nanos clock_after = 0;
};

class Vm {
 public:
  Vm(const VmConfig& config, Hypervisor* host);

  const VmConfig& config() const { return config_; }
  int id() const { return config_.id; }

  // The workload's cache behaviour is only known once the harness pairs a
  // workload with the VM, after construction; everything else in VmConfig
  // stays immutable (this replaces a const_cast in the harness).
  void set_cache_hit_rate(double rate) { config_.cache_hit_rate = rate; }

  GuestKernel& kernel() { return *kernel_; }
  PageTable& ept() { return ept_; }
  Hypervisor& host() { return *host_; }

  int num_vcpus() const { return static_cast<int>(vcpus_.size()); }
  Vcpu& vcpu(int i) { return *vcpus_[static_cast<size_t>(i)]; }
  const Vcpu& vcpu(int i) const { return *vcpus_[static_cast<size_t>(i)]; }

  VmStats& stats() { return stats_; }
  const VmStats& stats() const { return stats_; }
  Rng& rng() { return rng_; }

  // Lifecycle: a departed VM executes nothing and is skipped by host-side
  // scans (its Vm object outlives the guest so late events stay safe).
  bool departed() const { return departed_; }
  void set_departed(bool departed) { departed_ = departed; }

  // Executes one memory access by `vcpu_id` in `process` at address `gva`.
  // Handles guest and EPT faults inline. The caller advances the vCPU clock
  // by the returned cost.
  AccessResult ExecuteAccess(int vcpu_id, GuestProcess& process, uint64_t gva, bool is_write);

  // Executes `ops` front to back on `vcpu_id`, advancing the vCPU clock
  // by each op's cost and recording each op's cost + post-op clock into
  // steps[k]. Stops early — always after at least one op — once the clock
  // reaches `stop_at_ns` (the caller's next horizon: quantum end or
  // context-switch tick, whichever comes first). Returns the number of ops
  // executed; `steps` must have room for ops.size() entries.
  //
  // Observable behaviour (stats, RNG draws, TLB/PEBS/tier state, A/D bits,
  // costs) is bit-identical to calling ExecuteAccess op by op and adding
  // each cost to the clock. Batching adds one private speedup: consecutive
  // non-cache-hit accesses to the same page coalesce into a run whose TLB
  // probe and dirty micro-walk happen once (see ExecuteAccessImpl's memo),
  // which tests/batch_equivalence_test.cc checks against that op-by-op
  // reference.
  size_t ExecuteBatch(int vcpu_id, GuestProcess& process, std::span<const AccessOp> ops,
                      double stop_at_ns, BatchStep* steps);

  // ---- TLB shootdowns ----------------------------------------------------
  // Single-address invalidation on every vCPU (guest-side IPI shootdown).
  void FlushGvaAll(PageNum vpn);
  // Full invalidation on every vCPU (invept; the only option available to
  // hypervisor-side designs, which lack the gVA).
  void FullFlushAll();
  TlbStats AggregateTlbStats() const;
  // Cost of the flush instructions themselves (one per vCPU).
  double SingleFlushCost() const;
  double FullFlushCost() const;

  // ---- Guest-side migration ----------------------------------------------
  // Moves vpn's backing page to `dst_node` via allocate-copy-remap.
  // Fails (false) when the destination node has no free page and
  // `allow_fallback` is false. Accumulates CPU cost into *cost_ns.
  bool MovePage(GuestProcess& process, PageNum vpn, int dst_node, Nanos now, double* cost_ns);

  // Balanced swap: exchanges physical placement (and contents) of two
  // mapped virtual pages, with no page allocation. Both pages end up with
  // their original data at their original gVA, in the other page's node.
  bool SwapPages(GuestProcess& proc_a, PageNum vpn_a, GuestProcess& proc_b, PageNum vpn_b,
                 Nanos now, double* cost_ns);

  // NUMA node of the page backing vpn, or -1 when unmapped.
  int NodeOfVpn(const GuestProcess& process, PageNum vpn) const;

  // Per-VM management-CPU account (all TMM policy work).
  CpuAccount& mgmt_account() { return mgmt_account_; }

  // Distribution of 2D-walk MMU costs for TLB misses (the walker's
  // per-level touch costs aggregate here; full-flush refills show up as the
  // cold-walk tail).
  const Histogram& walk_cost_histogram() const { return walk_cost_ns_; }

  // Registers this VM's counters under `scope` (the harness passes
  // "vm<id>"): VmStats, per-vCPU TLB and PEBS stats plus TLB aggregates,
  // guest-kernel stats, per-stage management CPU time, the walk-cost
  // distribution, and the MMU cost model as gauges.
  void RegisterMetrics(MetricScope scope);

  // Context switch on a vCPU: charges the base cost plus hook work.
  double OnContextSwitch(int vcpu_id, Nanos now);

 private:
  // Same-page run memo for ExecuteBatch: the last cleanly translated page
  // of the current batch. While the memo matches, repeat accesses skip the
  // TLB set scan (counted as hits via Tlb::CountCoalescedHit) and repeat
  // the dirty-bit micro-walk only once per run. The memo is only valid
  // within one ExecuteBatch call: anything that can move pages or flush
  // TLBs mid-batch (a PMI handler, a poison recovery) invalidates it, and
  // context switches / event drains only happen between batches.
  struct RunMemo {
    static constexpr PageNum kNone = ~static_cast<PageNum>(0);
    PageNum vpn = kNone;
    FrameId frame = kInvalidFrame;
    TierIndex tier = kFmemTier;
    bool dirty_done = false;  // D bit already set in both dimensions.
  };

  // The access pipeline behind ExecuteBatch (the memo tracks same-page
  // runs across one batch) and ExecuteAccess (a fresh memo per access,
  // which never matches). Forced inline, so it compiles into the batch
  // loop instead of costing a call per op; GCC keeps it out of line
  // otherwise.
  [[gnu::always_inline]] inline AccessResult ExecuteAccessImpl(Vcpu& v, GuestProcess& process,
                                                               uint64_t gva, bool is_write,
                                                               RunMemo& memo);

  // Charges a page-sized transfer against the host tier backing `gpa`.
  double PageCopyCost(PageNum src_gpa, PageNum dst_gpa, Nanos now);

  VmConfig config_;
  Hypervisor* host_;
  // Hot-path aliases of host subsystems, bound at VM creation. The harness
  // (and every test fixture) wires the fault injector and swap device into
  // the hypervisor before creating VMs, and HostMemory outlives the
  // hypervisor — so these never dangle and never change. Caching them
  // removes two pointer chases through host_ from every simulated access.
  HostMemory* mem_ = nullptr;
  FaultInjector* fault_ = nullptr;
  SwapDevice* swap_ = nullptr;
  std::unique_ptr<GuestKernel> kernel_;
  PageTable ept_;
  std::vector<std::unique_ptr<Vcpu>> vcpus_;
  VmStats stats_;
  CpuAccount mgmt_account_;
  Histogram walk_cost_ns_;
  Rng rng_;
  bool departed_ = false;
  // Cached per-tier poison arming (plan probability > 0), fixed at VM
  // creation. FaultInjector::ShouldInject on a zero-probability site is a
  // guaranteed no-draw no-op, so skipping the call entirely when a tier is
  // unarmed is observationally identical — and saves a per-access stream
  // lookup on faulted-but-unpoisoned runs.
  std::array<bool, kMaxFaultTiers> poison_armed_{};
};

}  // namespace demeter

#endif  // DEMETER_SRC_HYPER_VM_H_
