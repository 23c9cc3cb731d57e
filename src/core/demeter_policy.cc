#include "src/core/demeter_policy.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/base/logging.h"
#include "src/hyper/hypervisor.h"

namespace demeter {

DemeterPolicy::DemeterPolicy(DemeterConfig config)
    : config_(config), relocator_(config.relocator) {}

void DemeterPolicy::Attach(Vm& vm, GuestProcess& process, Nanos start) {
  DEMETER_CHECK(vm_ == nullptr) << "policy already attached";
  vm_ = &vm;
  process_ = &process;
  tree_ = std::make_unique<RangeTree>(config_.range);

  // EPT-friendly PEBS on every vCPU: small constant frequency, load-latency
  // event, threshold between L2-hit and DRAM latency.
  for (int i = 0; i < vm.num_vcpus(); ++i) {
    PebsConfig pebs = vm.config().pebs;
    pebs.sample_period = config_.sample_period;
    pebs.latency_threshold_ns = config_.latency_threshold_ns;
    DEMETER_CHECK(PebsUnit(pebs).UsableInGuest(vm.config().lazily_backed))
        << "guest PEBS requires an EPT-friendly PMU under lazy backing";
    vm.vcpu(i).pebs = std::make_unique<PebsUnit>(pebs);
    vm.vcpu(i).pebs->BindFault(vm.host().fault_injector(), vm.id());
    vm.vcpu(i).pebs->set_enabled(true);
    // PMIs are rare at this frequency, but when one fires its buffer goes
    // into the same queue (the PMI cost is charged at the access site).
    vm.vcpu(i).pebs->set_pmi_handler(
        [this, alive = alive_](std::vector<PebsRecord>&& records, Nanos) {
          if (!*alive) {
            return;
          }
          for (const PebsRecord& r : records) {
            samples_.Push(r.gva);
          }
        });
  }

  if (config_.drain_on_context_switch) {
    // Context-switch drain: no dedicated collection thread (§3.2.2).
    vm.kernel().RegisterContextSwitchHook([this, alive = alive_, &vm](int vcpu_id, Nanos) {
      if (!*alive) {
        return 0.0;
      }
      auto records = vm.vcpu(vcpu_id).pebs->Drain();
      for (const PebsRecord& r : records) {
        samples_.Push(r.gva);
      }
      const double cost = config_.drain_ns_per_record * static_cast<double>(records.size());
      vm.mgmt_account().Charge(TmmStage::kTracking, static_cast<Nanos>(cost));
      return cost;
    });
  } else {
    // Ablation: HeMem/Memtis-style dedicated polling kthread.
    vm.host().events().Schedule(start + config_.poll_period, [this, alive = alive_](Nanos fire) {
      if (*alive) {
        RunPoll(fire);
      }
    });
  }

  if (config_.classify_virtual) {
    SyncRegions();
  } else {
    SyncPhysicalRegions();
  }

  FaultInjector* fault = vm.host().fault_injector();
  injector_armed_ = fault != nullptr && fault->active();
  watchdog_armed_ = injector_armed_ && config_.degradation.enabled;
  last_epoch_done_ = start;
  unresponsive_after_ = config_.degradation.unresponsive_after > 0
                            ? config_.degradation.unresponsive_after
                            : 3 * config_.range.epoch_length;
  watchdog_period_ = config_.degradation.watchdog_period > 0 ? config_.degradation.watchdog_period
                                                             : config_.range.epoch_length;
  host_round_period_ = config_.degradation.host_round_period > 0
                           ? config_.degradation.host_round_period
                           : 3 * watchdog_period_;
  if (watchdog_armed_) {
    vm.host().events().Schedule(start + watchdog_period_, [this, alive = alive_](Nanos fire) {
      if (*alive) {
        RunWatchdog(fire);
      }
    });
  }

  ScheduleNext(start);
}

void DemeterPolicy::RunPoll(Nanos now) {
  if (stopped_) {
    return;
  }
  double cost = config_.poll_fixed_ns;
  for (int i = 0; i < vm_->num_vcpus(); ++i) {
    auto records = vm_->vcpu(i).pebs->Drain();
    cost += config_.drain_ns_per_record * static_cast<double>(records.size());
    for (const PebsRecord& r : records) {
      samples_.Push(r.gva);
    }
  }
  vm_->vcpu(0).clock_ns += cost;
  vm_->mgmt_account().Charge(TmmStage::kTracking, static_cast<Nanos>(cost));
  vm_->host().events().Schedule(now + config_.poll_period, [this, alive = alive_](Nanos fire) {
    if (*alive) {
      RunPoll(fire);
    }
  });
}

void DemeterPolicy::SyncRegions() {
  const AddressSpace& space = process_->space();
  // Heap growth.
  const uint64_t brk = space.brk();
  if (brk > AddressSpace::kStartBrk) {
    if (heap_synced_end_ == 0) {
      tree_->AddRegion(AddressSpace::kStartBrk, brk);
    } else if (brk > heap_synced_end_) {
      tree_->ExtendRegion(AddressSpace::kStartBrk, brk);
    }
    heap_synced_end_ = brk;
  }
  // New mmap VMAs.
  const auto& vmas = space.vmas();
  for (; vmas_synced_ < vmas.size(); ++vmas_synced_) {
    const Vma& vma = vmas[vmas_synced_];
    if (vma.tracked && vma.kind == VmaKind::kMmap && vma.size() > 0) {
      tree_->AddRegion(vma.start, vma.end);
    }
  }
}

void DemeterPolicy::SyncPhysicalRegions() {
  if (heap_synced_end_ != 0) {
    return;  // Physical node spans never grow.
  }
  for (int n = 0; n < vm_->kernel().num_nodes(); ++n) {
    const NumaNode& node = vm_->kernel().node(n);
    tree_->AddRegion(AddrOfPage(node.gpa_base()), AddrOfPage(node.gpa_end()));
  }
  heap_synced_end_ = 1;  // Marker: physical regions registered.
}

RelocationResult DemeterPolicy::RelocatePhysical(const std::vector<HotRange>& ranked,
                                                 size_t hot_prefix, Nanos now) {
  RelocationResult result;
  GuestKernel& kernel = vm_->kernel();
  const double scan_ns = vm_->config().mmu_costs.pte_scan_ns;

  struct Candidate {
    PageNum vpn;
    int pid;
    double freq;
  };
  auto collect = [&](const HotRange& range, int want_node, size_t cap,
                     std::vector<Candidate>* out) {
    const double freq = range.Frequency();
    for (PageNum gpa = PageOf(range.start); gpa < PageOf(range.end) && out->size() < cap;
         ++gpa) {
      ++result.ptes_scanned;
      const std::optional<RmapEntry> rmap = kernel.Rmap(gpa);
      if (rmap.has_value() && kernel.NodeOfGpa(gpa) == want_node) {
        out->push_back(Candidate{rmap->vpn, rmap->pid, freq});
      }
    }
  };

  std::vector<Candidate> promote;
  for (size_t f = 0; f < hot_prefix && promote.size() < config_.relocator.max_batch_pages; ++f) {
    if (ranked[f].Frequency() <= 0.0) {
      break;
    }
    collect(ranked[f], /*want_node=*/1, config_.relocator.max_batch_pages, &promote);
  }
  std::vector<Candidate> demote;
  for (size_t r = ranked.size(); r-- > hot_prefix && demote.size() < promote.size();) {
    collect(ranked[r], /*want_node=*/0, promote.size(), &demote);
  }
  const size_t pairs = std::min(promote.size(), demote.size());
  for (size_t i = 0; i < pairs; ++i) {
    const Candidate& p = promote[i];
    const Candidate& d = demote[i];
    if (p.freq < config_.relocator.demote_margin * d.freq) {
      break;
    }
    GuestProcess* proc_p = kernel.process(p.pid);
    GuestProcess* proc_d = kernel.process(d.pid);
    if (proc_p != nullptr && proc_d != nullptr &&
        vm_->SwapPages(*proc_p, p.vpn, *proc_d, d.vpn, now, &result.cost_ns)) {
      ++result.swaps;
      ++result.promoted;
      ++result.demoted;
    }
  }
  result.cost_ns += static_cast<double>(result.ptes_scanned) * scan_ns;
  return result;
}

void DemeterPolicy::RunEpoch(Nanos now) {
  if (stopped_) {
    return;
  }
  if (injector_armed_) {
    // The engine is a guest kernel thread: while the guest is stalled or
    // crashed it makes no progress. Defer the whole epoch to the window
    // end — which is exactly the unresponsiveness the watchdog detects.
    FaultInjector* fault = vm_->host().fault_injector();
    const bool crashed = fault->InCrashWindow(now);
    if (crashed || fault->InStallWindow(now)) {
      ++epochs_deferred_;
      const Nanos resume = crashed ? fault->CrashWindowEnd(now) : fault->StallWindowEnd(now);
      vm_->host().events().Schedule(resume, [this, alive = alive_](Nanos fire) {
        if (*alive) {
          RunEpoch(fire);
        }
      });
      return;
    }
  }
  double tracking_ns = 0.0;
  double classify_ns = 0.0;
  double migrate_ns = 0.0;

  // Drain the sample queue. In the default (virtual) mode, gVAs feed the
  // classifier directly — no address translation per sample (the
  // Memtis/HeMem cost we avoid). The physical ablation pays a software
  // walk per sample and loses the gVA locality.
  const std::vector<uint64_t> drained = samples_.Drain();
  tracking_ns += config_.classify_ns_per_sample * static_cast<double>(drained.size());

  if (config_.classify_virtual) {
    SyncRegions();
    for (uint64_t gva : drained) {
      tree_->RecordSample(gva);
    }
  } else {
    SyncPhysicalRegions();
    tracking_ns += config_.translate_ns_per_sample * static_cast<double>(drained.size());
    for (uint64_t gva : drained) {
      const auto walk = process_->gpt().Lookup(PageOf(gva));
      if (walk.present) {
        tree_->RecordSample(AddrOfPage(walk.target) + (gva & (kPageSize - 1)));
      }
    }
  }
  tree_->EndEpoch(vm_->num_vcpus());
  const std::vector<HotRange> ranked = tree_->Ranked();
  classify_ns += config_.classify_ns_per_range * static_cast<double>(ranked.size());

  const uint64_t fmem_budget = vm_->kernel().node(0).present_pages();
  const size_t hot_prefix = RangeTree::HotPrefix(ranked, fmem_budget);
  if (config_.classify_virtual) {
    last_relocation_ = relocator_.Relocate(*vm_, *process_, ranked, hot_prefix, now);
    migrate_ns += last_relocation_.cost_ns +
                  static_cast<double>(last_relocation_.ptes_scanned) *
                      vm_->config().mmu_costs.pte_scan_ns;
  } else {
    last_relocation_ = RelocatePhysical(ranked, hot_prefix, now);
    migrate_ns += last_relocation_.cost_ns;
  }
  total_promoted_ += last_relocation_.promoted;
  total_demoted_ += last_relocation_.demoted;
  ++epochs_run_;

  // Engine work runs on a guest kernel thread: steal vCPU 0 time.
  vm_->vcpu(0).clock_ns += tracking_ns + classify_ns + migrate_ns;
  vm_->mgmt_account().Charge(TmmStage::kTracking, static_cast<Nanos>(tracking_ns));
  vm_->mgmt_account().Charge(TmmStage::kClassification, static_cast<Nanos>(classify_ns));
  vm_->mgmt_account().Charge(TmmStage::kMigration, static_cast<Nanos>(migrate_ns));
  TraceMigrationBatch(*vm_, name(), now, migrate_ns, last_relocation_.promoted,
                      last_relocation_.demoted);

  last_epoch_done_ = now;
  ScheduleNext(now);
}

void DemeterPolicy::RunWatchdog(Nanos now) {
  if (stopped_) {
    return;
  }
  Tracer* tracer = vm_->host().tracer();
  if (!degraded_) {
    if (now >= last_epoch_done_ && now - last_epoch_done_ >= unresponsive_after_) {
      degraded_ = true;
      degraded_since_ = now;
      ++degraded_entries_;
      if (tracer != nullptr && tracer->enabled()) {
        tracer->Instant("demeter", "degrade", now, vm_->id(), 0,
                        TraceArgs().Add("idle_ns", static_cast<uint64_t>(now - last_epoch_done_))
                            .str());
      }
    }
  } else if (last_epoch_done_ > degraded_since_) {
    // The guest engine completed an epoch since we degraded: re-delegate.
    degraded_ = false;
    ++recoveries_;
    degraded_ns_ += now - degraded_since_;
    // Next degradation starts with an immediate first host round.
    next_host_round_ = 0;
    if (tracer != nullptr && tracer->enabled()) {
      tracer->Instant("demeter", "recover", now, vm_->id(), 0,
                      TraceArgs().Add("degraded_ns", static_cast<uint64_t>(now - degraded_since_))
                          .str());
    }
  }
  if (degraded_ && now >= next_host_round_) {
    HostManageRound(now);
    next_host_round_ = now + host_round_period_;
  }
  vm_->host().events().Schedule(now + watchdog_period_, [this, alive = alive_](Nanos fire) {
    if (*alive) {
      RunWatchdog(fire);
    }
  });
}

void DemeterPolicy::HostManageRound(Nanos now) {
  // Hypervisor-side fallback. The guest classifier is out, but Demeter's
  // sample queue lives in guest kernel memory the hypervisor can read
  // (it defined the protocol), and the guest's context-switch drain keeps
  // filling it. The host drains the queue, pays the software gVA->gPA
  // walk the delegated engine avoids by design (§3.2), and re-tiers by
  // sample frequency. EPT A bits are deliberately NOT used: at memory-bound
  // access rates every resident page is touched within any practical scan
  // window, so a single bit cannot rank pages. All work is charged to the
  // management account but NOT to vCPU clocks: the host burns its own core
  // while the guest is out.
  Hypervisor& host = vm_->host();
  double work_ns = 0.0;

  std::vector<uint64_t> gvas = samples_.Drain();
  // Steal whatever still sits in the per-vCPU PEBS buffers too.
  for (int i = 0; i < vm_->num_vcpus(); ++i) {
    auto records = vm_->vcpu(i).pebs->Drain();
    work_ns += config_.drain_ns_per_record * static_cast<double>(records.size());
    for (const PebsRecord& r : records) {
      gvas.push_back(r.gva);
    }
  }

  // Sample frequency per guest-virtual page. Clustering happens in gVA
  // space deliberately: a few dozen samples per round cannot rank thousands
  // of pages individually, but Demeter's own insight (§3.2) — hot pages are
  // contiguous in virtual address space — lets sparse samples identify
  // whole hot extents. The host pays a software translation per sample and
  // a page-table walk per expanded page; the delegated engine avoids both.
  std::unordered_map<PageNum, uint32_t> vpn_counts;
  for (uint64_t gva : gvas) {
    ++vpn_counts[PageOf(gva)];
  }
  work_ns += config_.translate_ns_per_sample * static_cast<double>(gvas.size());

  std::vector<PageNum> vpns;
  vpns.reserve(vpn_counts.size());
  for (const auto& [vpn, count] : vpn_counts) {
    vpns.push_back(vpn);
  }
  std::sort(vpns.begin(), vpns.end());

  // Merge sampled pages closer than kGapPages into extents; extents with
  // fewer than kMinSamples are sampling noise and are ignored.
  struct Extent {
    PageNum lo;
    PageNum hi;
    uint32_t samples;
  };
  constexpr PageNum kGapPages = 32;
  constexpr uint32_t kMinSamples = 3;
  std::vector<Extent> extents;
  for (PageNum vpn : vpns) {
    if (!extents.empty() && vpn - extents.back().hi <= kGapPages) {
      extents.back().hi = vpn;
      extents.back().samples += vpn_counts[vpn];
    } else {
      extents.push_back(Extent{vpn, vpn, vpn_counts[vpn]});
    }
  }
  // Densest extents first (ties: lowest address) — the ranking the guest's
  // range tree would have produced.
  std::sort(extents.begin(), extents.end(), [](const Extent& a, const Extent& b) {
    const double da = static_cast<double>(a.samples) / static_cast<double>(a.hi - a.lo + 1);
    const double db = static_cast<double>(b.samples) / static_cast<double>(b.hi - b.lo + 1);
    if (da != db) {
      return da > db;
    }
    return a.lo < b.lo;
  });

  // Expand extents to gPA pages through the guest page table (software
  // walks, charged per page). Expansion stops once the hot set could not
  // possibly be consumed this round.
  struct HotPage {
    PageNum vpn;
    PageNum gpa;
  };
  const uint64_t expand_cap = 8 * config_.degradation.host_batch_pages;
  std::unordered_set<PageNum> hot_gpas;
  std::vector<std::vector<HotPage>> extent_pages(extents.size());
  uint64_t walked = 0;
  for (size_t e = 0; e < extents.size() && walked < expand_cap; ++e) {
    if (extents[e].samples < kMinSamples) {
      continue;
    }
    for (PageNum vpn = extents[e].lo; vpn <= extents[e].hi && walked < expand_cap; ++vpn) {
      ++walked;
      const auto gpt = process_->gpt().Lookup(vpn);
      if (gpt.present) {
        extent_pages[e].push_back(HotPage{vpn, gpt.target});
        hot_gpas.insert(gpt.target);
      }
    }
  }
  work_ns += static_cast<double>(walked) * vm_->config().mmu_costs.pte_scan_ns;

  // Demotion victims: FMEM-backed pages outside every hot extent, in
  // deterministic EPT walk order. On a three-tier host the same walk also
  // collects cold SMEM pages — the second level of the demotion chain.
  const bool has_far = host.swap() != nullptr;
  std::vector<PageNum> cold_fmem;
  std::vector<PageNum> cold_smem;
  const uint64_t ept_touched = vm_->ept().ForEachPresent(
      0, PageTable::kMaxPage, [&](PageNum gpa, uint64_t frame, bool, bool) {
        if (hot_gpas.count(gpa) != 0) {
          return;
        }
        const TierIndex t = host.memory().TierOf(static_cast<FrameId>(frame));
        if (t == kFmemTier) {
          cold_fmem.push_back(gpa);
        } else if (has_far && t == kSmemTier) {
          cold_smem.push_back(gpa);
        }
      });
  work_ns += static_cast<double>(ept_touched) * vm_->config().mmu_costs.pte_scan_ns;

  // Migrate with single-address shootdowns, not invept: a pure
  // hypervisor-side design must full-flush after host migration because it
  // lacks the gVA (§2.3.1), but this fallback just translated the gVAs it
  // promotes, and the victims' gVAs sit in the guest's rmap — readable the
  // same way the sample queue is. A full flush per round at this cadence
  // would keep the TLBs permanently cold.
  double migrate_ns = 0.0;
  uint64_t promoted = 0;
  uint64_t demoted = 0;
  size_t demote_idx = 0;
  // Mid-drain elasticity: while a shrink window carves FMEM, the host is
  // already evicting out of the tier, and any promotion we force in would
  // either fail or be re-evicted within the window. Skip this round's
  // re-tiering entirely (the hot set is recounted from fresh samples next
  // round, so nothing is charged and nothing double-counts).
  const bool fmem_shrinking = host.TierUnderShrink(kFmemTier);
  if (fmem_shrinking) {
    ++host_rounds_throttled_;
  }
  // Demotes the next coverable cold-FMEM victim; returns false when none
  // remain. The rmap read that recovers the victim's gVA for the shootdown
  // is another guest-metadata walk the host pays for.
  // Three-tier chain: when SMEM is full, push a cold SMEM page down to the
  // far swap tier so the FMEM victim has a near frame to land in. The rmap
  // shootdown mirrors the first-level demotion; no-op on two-tier hosts.
  size_t far_demote_idx = 0;
  auto make_far_room = [&]() -> bool {
    while (far_demote_idx < cold_smem.size()) {
      const PageNum victim = cold_smem[far_demote_idx++];
      work_ns += config_.translate_ns_per_sample;
      const std::optional<RmapEntry> rmap = vm_->kernel().Rmap(victim);
      if (!rmap.has_value()) {
        continue;
      }
      if (host.MigrateGpa(*vm_, victim, kSwapTier, now, &migrate_ns)) {
        vm_->FlushGvaAll(rmap->vpn);
        migrate_ns += vm_->SingleFlushCost();
        ++demoted;
        return true;
      }
    }
    return false;
  };
  auto make_room = [&]() -> bool {
    while (demote_idx < cold_fmem.size()) {
      const PageNum victim = cold_fmem[demote_idx++];
      work_ns += config_.translate_ns_per_sample;
      const std::optional<RmapEntry> rmap = vm_->kernel().Rmap(victim);
      if (!rmap.has_value()) {
        continue;  // Not process-mapped; leave it alone.
      }
      if (host.MigrateGpa(*vm_, victim, kSmemTier, now, &migrate_ns) ||
          (make_far_room() && host.MigrateGpa(*vm_, victim, kSmemTier, now, &migrate_ns))) {
        vm_->FlushGvaAll(rmap->vpn);
        migrate_ns += vm_->SingleFlushCost();
        ++demoted;
        return true;
      }
    }
    return false;
  };
  // Shrink-aware headroom: with a shrink schedule armed for FMEM, never
  // promote into the slice the next window will carve. Demoting first keeps
  // the tier's free count above the carve size, so windows reclaim idle
  // frames instead of evicting the pages this round just moved — the
  // promote-evict ping-pong would otherwise cost more than the fallback
  // earns. Zero when no schedule is armed, so fault-free rounds never
  // demote preemptively.
  const uint64_t fmem_reserve = host.ShrinkReservePages(kFmemTier);
  for (size_t e = 0; !fmem_shrinking && e < extents.size() &&
                     promoted < config_.degradation.host_batch_pages;
       ++e) {
    for (const HotPage& page : extent_pages[e]) {
      if (promoted >= config_.degradation.host_batch_pages) {
        break;
      }
      const auto entry = vm_->ept().Lookup(page.gpa);
      // A page can vanish between expansion and migration — a concurrent
      // hwpoison SIGBUS discards it from both tables. Lookup-then-skip
      // keeps the round tolerant: only successful moves are counted below.
      if (!entry.present ||
          host.memory().TierOf(static_cast<FrameId>(entry.target)) == kFmemTier) {
        continue;  // Already fast.
      }
      if (fmem_reserve > 0 && host.memory().FreePages(kFmemTier) <= fmem_reserve &&
          !make_room()) {
        continue;
      }
      if (!host.MigrateGpa(*vm_, page.gpa, kFmemTier, now, &migrate_ns)) {
        // FMEM full: demote a page no extent covers, then retry once.
        if (!make_room() || !host.MigrateGpa(*vm_, page.gpa, kFmemTier, now, &migrate_ns)) {
          continue;
        }
      }
      vm_->FlushGvaAll(page.vpn);
      migrate_ns += vm_->SingleFlushCost();
      ++promoted;
    }
  }
  host_migrations_ += promoted + demoted;
  vm_->mgmt_account().Charge(TmmStage::kTracking, static_cast<Nanos>(work_ns));
  vm_->mgmt_account().Charge(TmmStage::kMigration, static_cast<Nanos>(migrate_ns));
  TraceMigrationBatch(*vm_, "demeter-host", now, work_ns + migrate_ns, promoted, demoted);
}

void DemeterPolicy::ScheduleNext(Nanos now) {
  if (stopped_) {
    return;
  }
  vm_->host().events().Schedule(now + config_.range.epoch_length,
                                  [this, alive = alive_](Nanos fire) {
                                    if (*alive) {
                                      RunEpoch(fire);
                                    }
                                  });
}

}  // namespace demeter
