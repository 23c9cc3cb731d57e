#include "src/hyper/hypervisor.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/base/logging.h"

namespace demeter {

Hypervisor::Hypervisor(HostMemory* memory, EventQueue* events)
    : memory_(memory), events_(events) {
  DEMETER_CHECK(memory != nullptr);
  DEMETER_CHECK(events != nullptr);
}

Vm& Hypervisor::CreateVm(const VmConfig& config) {
  vms_.push_back(std::make_unique<Vm>(config, this));
  return *vms_.back();
}

int Hypervisor::NodeOfGpa(const Vm& vm, PageNum gpa) const {
  const uint64_t span = vm.config().total_pages();
  const int node = static_cast<int>(gpa / span);
  DEMETER_CHECK_LT(node, 2);
  return node;
}

FrameId Hypervisor::CheckDestination(FrameId frame) {
  if (frame != kInvalidFrame && memory_->IsPoisoned(frame)) {
    ++poison_stats_.bad_destination;
  }
  return frame;
}

FrameId Hypervisor::PopulateEpt(Vm& vm, PageNum gpa, Nanos now) {
  const int node = NodeOfGpa(vm, gpa);
  const TierIndex desired = TierForNode(node);
  auto frame = memory_->Allocate(desired);
  if (!frame.has_value()) {
    // Host pressure: spill to another tier rather than failing the VM.
    // Byte-addressable tiers only, colder first, then warmer; the far swap
    // tier is strictly the last resort once every DRAM-class tier is dry.
    // Swapping out a page the host could still keep byte-addressable would
    // turn a transient SMEM shortage into major faults — and would make a
    // provisioned-to-fit host (overcommit ratio 1.0) behave differently
    // from its two-tier twin. On a two-tier host this order degenerates to
    // "the other tier", exactly the pre-swap behavior.
    const TierIndex num_dram =
        swap_ != nullptr ? kSwapTier : memory_->num_tiers();
    for (TierIndex t = desired + 1; !frame.has_value() && t < num_dram; ++t) {
      frame = memory_->Allocate(t);
    }
    for (TierIndex t = desired; !frame.has_value() && t-- > 0;) {
      frame = memory_->Allocate(t);
    }
    if (!frame.has_value() && swap_ != nullptr) {
      frame = memory_->Allocate(kSwapTier);
    }
    if (frame.has_value()) {
      // Count a fallback only when the spill actually produced a frame,
      // so the counter matches the number of off-tier placements.
      ++stats_.host_tier_fallbacks;
    }
  }
  if (!frame.has_value()) {
    return kInvalidFrame;
  }
  if (swap_ != nullptr && memory_->TierOf(*frame) == kSwapTier) {
    // A placement in the far tier is a swap-out: open the slot and start
    // the async writeback. The (rare) bounded-queue stall is absorbed here
    // — first-touch placement has no migration cost account to charge.
    swap_->SlotStore(*frame, vm.id(), now);
  }
  ++stats_.ept_populates;
  DEMETER_CHECK(vm.ept().Map(gpa, *frame, /*writable=*/true));
  return CheckDestination(*frame);
}

void Hypervisor::UnbackGpa(Vm& vm, PageNum gpa, bool flush) {
  const uint64_t frame = vm.ept().Unmap(gpa);
  if (frame == ~0ULL) {
    return;  // Never backed.
  }
  ++stats_.ept_unbacks;
  if (swap_ != nullptr && memory_->TierOf(frame) == kSwapTier) {
    // The page dies under its slot (balloon reclaim, VM departure): the
    // slot is released without a device read.
    swap_->SlotDrop(frame, vm.id());
  }
  memory_->Free(frame);
  if (flush) {
    vm.FullFlushAll();
  }
}

bool Hypervisor::MigrateGpa(Vm& vm, PageNum gpa, TierIndex dst_tier, Nanos now, double* cost_ns) {
  const auto entry = vm.ept().Lookup(gpa);
  if (!entry.present) {
    return false;
  }
  const FrameId old_frame = entry.target;
  if (memory_->TierOf(old_frame) == dst_tier) {
    return false;
  }
  auto new_frame = memory_->Allocate(dst_tier);
  if (!new_frame.has_value()) {
    return false;
  }
  CheckDestination(*new_frame);
  const TierIndex src_tier = memory_->TierOf(old_frame);
  if (swap_ != nullptr && src_tier == kSwapTier) {
    // Swap-in: the device read (or in-flight-buffer hit) releases the slot.
    *cost_ns += swap_->SlotLoad(old_frame, vm.id(), now);
  }
  *cost_ns += memory_->tier(src_tier).AccessCost(now, kPageSize, false);
  *cost_ns += memory_->tier(dst_tier).AccessCost(now, kPageSize, true);
  memory_->WriteToken(*new_frame, memory_->ReadToken(old_frame));
  DEMETER_CHECK(vm.ept().Remap(gpa, *new_frame));
  if (swap_ != nullptr && dst_tier == kSwapTier) {
    // Swap-out: open the slot and enqueue the async writeback; a full
    // bounded queue stalls the demotion, charged to the migration.
    *cost_ns += swap_->SlotStore(*new_frame, vm.id(), now);
  }
  memory_->Free(old_frame);
  ++stats_.host_migrations;
  return true;
}

void Hypervisor::EnableSwap(const SwapDeviceConfig& config) {
  DEMETER_CHECK(swap_ == nullptr);
  DEMETER_CHECK_GT(memory_->num_tiers(), kSwapTier);
  swap_ = std::make_unique<SwapDevice>(config, fault_injector_);
}

TierIndex Hypervisor::SwapInTarget() const {
  if (memory_->FreePages(kFmemTier) > ShrinkReservePages(kFmemTier) &&
      !TierUnderShrink(kFmemTier)) {
    return kFmemTier;  // Level-skip: a hot swap-in goes straight to FMEM.
  }
  return kSmemTier;
}

bool Hypervisor::SwapInGpa(Vm& vm, PageNum gpa, Nanos now, double* cost_ns) {
  const TierIndex preferred = SwapInTarget();
  if (MigrateGpa(vm, gpa, preferred, now, cost_ns)) {
    return true;
  }
  const TierIndex other = preferred == kFmemTier ? kSmemTier : kFmemTier;
  if (other == kFmemTier && TierUnderShrink(kFmemTier)) {
    return false;  // Don't fight an active carve; access the page far.
  }
  return MigrateGpa(vm, gpa, other, now, cost_ns);
}

double Hypervisor::OnMemoryError(Vm& vm, GuestProcess& process, PageNum vpn, Nanos now) {
  const auto gpt_entry = process.gpt().Lookup(vpn);
  DEMETER_CHECK(gpt_entry.present) << "memory error on unmapped vpn " << vpn;
  const PageNum gpa = gpt_entry.target;
  const auto ept_entry = vm.ept().Lookup(gpa);
  DEMETER_CHECK(ept_entry.present) << "memory error on unbacked gpa " << gpa;
  const FrameId frame = static_cast<FrameId>(ept_entry.target);
  const bool dirty = ept_entry.was_dirty;
  const TierIndex tier = memory_->TierOf(frame);
  // Read the logical contents before the frame dies: a clean page still has
  // an intact copy at its origin, which the recovery path re-materializes.
  const uint64_t token = memory_->ReadToken(frame);

  ++poison_stats_.events;
  vm.ept().Unmap(gpa);
  if (swap_ != nullptr) {
    swap_->SlotDrop(frame, vm.id());  // Poisoned swap frame: slot dies too.
  }
  memory_->Poison(frame);
  ++poison_stats_.frames_offlined;
  // The hypervisor knows the faulting gVA (the MCE hit a running access),
  // so a single-address shootdown suffices — no full invept.
  vm.FlushGvaAll(vpn);
  double cost = vm.SingleFlushCost() + vm.config().mmu_costs.ept_fault_ns;

  if (!dirty) {
    const FrameId replacement = PopulateEpt(vm, gpa, now);
    if (replacement != kInvalidFrame) {
      memory_->WriteToken(replacement, token);
      cost += memory_->tier(tier).AccessCost(now, kPageSize, /*is_write=*/false);
      cost += memory_->tier(memory_->TierOf(replacement)).AccessCost(now, kPageSize,
                                                                     /*is_write=*/true);
      ++poison_stats_.clean_recoveries;
      if (tracer_ != nullptr && tracer_->enabled()) {
        tracer_->Instant("host", "poison_clean", now, vm.id(), 0,
                         TraceArgs().Add("frame", frame).str());
      }
      return cost;
    }
  }
  // Dirty contents died with the frame (or no replacement frame existed):
  // deliver SIGBUS; the guest discards the page and the work is lost.
  vm.kernel().DiscardPage(process, vpn, gpa);
  cost += vm.config().mmu_costs.guest_fault_ns;
  ++poison_stats_.sigbus_deliveries;
  ++poison_stats_.pages_lost;
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Instant("host", "poison_sigbus", now, vm.id(), 0,
                     TraceArgs().Add("frame", frame).str());
  }
  return cost;
}

void Hypervisor::ArmTierShrink() {
  if (fault_injector_ == nullptr) {
    return;
  }
  for (TierIndex t = 0; t < memory_->num_tiers() && t < kMaxFaultTiers; ++t) {
    const Nanos start = fault_injector_->NextShrinkWindowStart(t, 0);
    if (start == 0) {
      continue;
    }
    events_->Schedule(start, [this, t](Nanos fire) { BeginShrinkWindow(t, fire); });
  }
}

bool Hypervisor::TierUnderShrink(TierIndex t) const {
  return t >= 0 && t < static_cast<TierIndex>(shrink_.size()) &&
         shrink_[static_cast<size_t>(t)].active;
}

void Hypervisor::CountShrinkBackpressure(TierIndex t) {
  ++shrink_[static_cast<size_t>(t)].stats.backpressure;
}

uint64_t Hypervisor::ShrinkReservePages(TierIndex t) const {
  if (fault_injector_ == nullptr || t < 0 || t >= kMaxFaultTiers) {
    return 0;
  }
  const double frac = fault_injector_->plan().tier_shrink[static_cast<size_t>(t)].frac;
  if (frac <= 0.0) {
    return 0;
  }
  return static_cast<uint64_t>(
      std::ceil(frac * static_cast<double>(memory_->CapacityPages(t))));
}

void Hypervisor::BeginShrinkWindow(TierIndex t, Nanos now) {
  ShrinkState& s = shrink_[static_cast<size_t>(t)];
  DEMETER_CHECK(!s.active) << "overlapping shrink windows on tier " << t;
  s.active = true;
  ++s.stats.windows;
  const double frac = fault_injector_->plan().tier_shrink[static_cast<size_t>(t)].frac;
  s.target_pages =
      static_cast<uint64_t>(frac * static_cast<double>(memory_->CapacityPages(t)));
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Instant("host", "shrink_begin", now, /*pid=*/0, /*tid=*/t,
                     TraceArgs().Add("target_pages", s.target_pages).str());
  }
  RunShrinkBatch(t, now);
  events_->Schedule(fault_injector_->ShrinkWindowEnd(t, now),
                    [this, t](Nanos fire) { EndShrinkWindow(t, fire); });
}

void Hypervisor::RunShrinkBatch(TierIndex t, Nanos now) {
  ShrinkState& s = shrink_[static_cast<size_t>(t)];
  if (!s.active) {
    return;
  }
  auto deficit = [&] {
    const uint64_t carved = memory_->CarvedPages(t);
    return s.target_pages > carved ? s.target_pages - carved : 0;
  };
  // Free frames are the cheapest capacity: carve them before evicting.
  s.stats.carved_pages += memory_->CarveFree(t, deficit());
  const uint64_t need = deficit();
  if (need == 0) {
    return;
  }
  // Emergency eviction, bounded per batch so a large carve target cannot
  // stall the run at a single instant: migrate up to kShrinkBatchPages
  // mapped pages off the shrinking tier, then reschedule.
  constexpr uint64_t kShrinkBatchPages = 128;
  // Eviction destinations in preference order: the other DRAM tier first,
  // then (on a three-tier host) the far swap tier as the overflow valve.
  std::vector<TierIndex> dsts;
  dsts.push_back(t == kFmemTier ? kSmemTier : kFmemTier);
  for (TierIndex d = 0; d < memory_->num_tiers(); ++d) {
    if (d != t && d != dsts.front()) {
      dsts.push_back(d);
    }
  }
  uint64_t budget = std::min(need, kShrinkBatchPages);
  uint64_t evicted = 0;
  for (auto& vm_ptr : vms_) {
    Vm& vm = *vm_ptr;
    if (vm.departed() || budget == 0) {
      continue;
    }
    std::vector<PageNum> victims;
    vm.ept().ForEachPresent(0, PageTable::kMaxPage,
                            [&](PageNum gpa, uint64_t frame, bool, bool) {
                              if (victims.size() < budget &&
                                  memory_->TierOf(static_cast<FrameId>(frame)) == t) {
                                victims.push_back(gpa);
                              }
                            });
    double cost_ns = 0.0;
    uint64_t moved = 0;
    for (PageNum gpa : victims) {
      for (TierIndex dst : dsts) {
        if (MigrateGpa(vm, gpa, dst, now, &cost_ns)) {
          ++moved;
          break;
        }
      }
    }
    if (moved > 0) {
      vm.FullFlushAll();
      cost_ns += vm.FullFlushCost();
      // The batch runs on host cores but steals memory bandwidth and the
      // post-batch invept from the VM; charge its migration account.
      vm.mgmt_account().Charge(TmmStage::kMigration, static_cast<Nanos>(cost_ns));
    }
    evicted += moved;
    budget -= std::min(budget, moved);
  }
  s.stats.evictions += evicted;
  s.stats.carved_pages += memory_->CarveFree(t, deficit());
  if (deficit() > 0 && evicted > 0) {
    events_->Schedule(now + 50 * kMicrosecond,
                      [this, t](Nanos fire) { RunShrinkBatch(t, fire); });
  }
  // No progress while short: give up; the shortfall is recorded when the
  // window closes.
}

void Hypervisor::EndShrinkWindow(TierIndex t, Nanos now) {
  ShrinkState& s = shrink_[static_cast<size_t>(t)];
  DEMETER_CHECK(s.active);
  const uint64_t carved = memory_->CarvedPages(t);
  if (s.target_pages > carved) {
    s.stats.shortfall_pages += s.target_pages - carved;
  }
  memory_->RestoreCarved(t);
  s.active = false;
  s.target_pages = 0;
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Instant("host", "shrink_end", now, /*pid=*/0, /*tid=*/t,
                     TraceArgs().Add("restored_pages", carved).str());
  }
  // duration == period means back-to-back windows: reopen immediately.
  const Nanos next = fault_injector_->InShrinkWindow(t, now)
                         ? now
                         : fault_injector_->NextShrinkWindowStart(t, now);
  if (next >= now && next != 0) {
    events_->Schedule(next, [this, t](Nanos fire) { BeginShrinkWindow(t, fire); });
  }
}

Hypervisor::ReclaimResult Hypervisor::ReclaimVm(Vm& vm) {
  ReclaimResult result;
  GuestKernel& kernel = vm.kernel();
  for (const auto& process : kernel.processes()) {
    std::vector<std::pair<PageNum, PageNum>> mappings;
    process->gpt().ForEachPresent(0, PageTable::kMaxPage,
                                  [&](PageNum vpn, uint64_t gpa, bool, bool) {
                                    mappings.emplace_back(vpn, static_cast<PageNum>(gpa));
                                  });
    for (const auto& [vpn, gpa] : mappings) {
      process->gpt().Unmap(vpn);
      kernel.FreeGpa(gpa);
      ++result.gpt_unmapped;
      ++result.gpa_freed;
    }
  }
  std::vector<PageNum> backed;
  vm.ept().ForEachPresent(0, PageTable::kMaxPage,
                          [&](PageNum gpa, uint64_t, bool, bool) { backed.push_back(gpa); });
  for (PageNum gpa : backed) {
    UnbackGpa(vm, gpa, /*flush=*/false);
    ++result.ept_unbacked;
  }
  // One full invalidation per vCPU retires every cached translation of the
  // departed address space (ASID teardown).
  vm.FullFlushAll();
  return result;
}

void Hypervisor::RegisterMetrics(MetricScope scope) {
  MetricScope hyper = scope.Sub("hyper");
  hyper.RegisterCounter("ept_populates", &stats_.ept_populates);
  hyper.RegisterCounter("ept_unbacks", &stats_.ept_unbacks);
  hyper.RegisterCounter("tier_fallbacks", &stats_.host_tier_fallbacks);
  hyper.RegisterCounter("migrations", &stats_.host_migrations);
  MetricScope poison = scope.Sub("poison");
  poison.RegisterCounter("events", &poison_stats_.events);
  poison.RegisterCounter("frames_offlined", &poison_stats_.frames_offlined);
  poison.RegisterCounter("clean_recoveries", &poison_stats_.clean_recoveries);
  poison.RegisterCounter("sigbus_deliveries", &poison_stats_.sigbus_deliveries);
  poison.RegisterCounter("pages_lost", &poison_stats_.pages_lost);
  poison.RegisterCounter("bad_destination", &poison_stats_.bad_destination);
  if (swap_ != nullptr) {
    swap_->RegisterHostMetrics(scope.Sub("swap"));
  }
  for (TierIndex t = 0; t < memory_->num_tiers(); ++t) {
    MetricScope tier = scope.Sub("tier" + std::to_string(t));
    HostMemory* memory = memory_;
    tier.RegisterGaugeFn("used_pages",
                         [memory, t] { return static_cast<double>(memory->UsedPages(t)); });
    tier.RegisterGaugeFn("free_pages",
                         [memory, t] { return static_cast<double>(memory->FreePages(t)); });
    tier.RegisterGaugeFn("poisoned_pages",
                         [memory, t] { return static_cast<double>(memory->PoisonedPages(t)); });
    if (t < static_cast<TierIndex>(shrink_.size())) {
      TierShrinkStats& shrink = shrink_[static_cast<size_t>(t)].stats;
      tier.RegisterCounter("shrink_windows", &shrink.windows);
      tier.RegisterCounter("shrink_carved_pages", &shrink.carved_pages);
      tier.RegisterCounter("shrink_evictions", &shrink.evictions);
      tier.RegisterCounter("shrink_shortfall_pages", &shrink.shortfall_pages);
      tier.RegisterCounter("shrink_backpressure", &shrink.backpressure);
    }
  }
}

uint64_t Hypervisor::ScanEptAccessedAndFlush(Vm& vm, const EptVisitor& visitor) {
  const uint64_t touched = vm.ept().ScanAndClearAccessed(
      0, PageTable::kMaxPage, [&](PageNum gpa, uint64_t frame, bool accessed, bool) {
        visitor(gpa, static_cast<FrameId>(frame), accessed);
      });
  // Without gVAs, only a full EPT invalidation guarantees that future
  // accesses re-walk and re-set A bits (§2.3.1).
  vm.FullFlushAll();
  return touched;
}

}  // namespace demeter
