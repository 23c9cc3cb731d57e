#include "src/tmm/tpp.h"

#include <algorithm>
#include <vector>

#include "src/base/logging.h"
#include "src/hyper/hypervisor.h"
#include "src/tmm/policy_util.h"

namespace demeter {

TppPolicy::TppPolicy(TppConfig config) : config_(config) {}

void TppPolicy::Attach(Vm& vm, GuestProcess& process, Nanos start) {
  DEMETER_CHECK(vm_ == nullptr);
  vm_ = &vm;
  process_ = &process;
  ScheduleNext(start);
}

void TppPolicy::FitStreaks(const std::vector<std::pair<PageNum, PageNum>>& ranges) {
  for (const auto& [begin, end] : ranges) {
    auto it = std::find_if(hit_streak_.begin(), hit_streak_.end(),
                           [&](const RangeStreaks& r) { return r.begin == begin; });
    if (it == hit_streak_.end()) {
      it = hit_streak_.insert(hit_streak_.end(), RangeStreaks{begin, {}});
    }
    if (it->hits.size() < end - begin) {
      it->hits.resize(end - begin, 0);
    }
  }
}

uint8_t& TppPolicy::Streak(PageNum vpn) {
  for (RangeStreaks& range : hit_streak_) {
    if (vpn - range.begin < range.hits.size()) {
      return range.hits[vpn - range.begin];
    }
  }
  DEMETER_CHECK(false) << "vpn " << vpn << " is outside every tracked range";
  return hit_streak_.front().hits.front();
}

void TppPolicy::RunScan(Nanos now) {
  if (stopped_) {
    return;
  }
  ++scans_run_;
  const uint64_t promoted_before = total_promoted_;
  const uint64_t demoted_before = total_demoted_;
  double tracking_ns = 0.0;
  double classify_ns = 0.0;
  double migrate_ns = 0.0;
  GuestKernel& kernel = vm_->kernel();
  const MmuCosts& costs = vm_->config().mmu_costs;

  // Rate-limited A-bit scan over the tracked VMAs: a cursor sweeps
  // scan_chunk_pages of address space per round (NUMA-balancing style).
  // Every cleared bit needs a single-gVA shootdown so the next access
  // re-walks and re-sets it.
  std::vector<PageNum> promote_candidates;
  uint64_t scanned_pages = 0;
  const auto visitor = [&](PageNum vpn, uint64_t gpa, bool accessed, bool) {
    ++scanned_pages;
    if (!accessed) {
      Streak(vpn) = 0;
      return;
    }
    vm_->FlushGvaAll(vpn);
    tracking_ns += vm_->SingleFlushCost();
    if (kernel.NodeOfGpa(gpa) != 0) {
      const int streak = ++Streak(vpn);
      // A swap-backed page qualifies on its first observed hit: every
      // access it takes is a major fault, so making it wait out the
      // streak threshold costs device reads, not just SMEM latency.
      // (Always false on two-tier hosts.)
      if ((streak >= config_.promote_after_hits || SwapBacked(*vm_, *process_, vpn)) &&
          promote_candidates.size() < config_.max_promote_per_scan) {
        promote_candidates.push_back(vpn);
      }
    }
  };
  const auto ranges = TrackedPageRanges(*process_);
  FitStreaks(ranges);
  uint64_t span_total = 0;
  for (const auto& [begin, end] : ranges) {
    span_total += end - begin;
  }
  if (span_total > 0) {
    uint64_t offset = scan_cursor_ % span_total;
    uint64_t remaining = std::min<uint64_t>(config_.scan_chunk_pages, span_total);
    scan_cursor_ = (offset + remaining) % span_total;
    uint64_t range_base = 0;  // Offset of the current range in the span.
    // Two sweeps handle cursor wrap-around.
    for (int sweep = 0; sweep < 2 && remaining > 0; ++sweep) {
      for (const auto& [begin, end] : ranges) {
        const uint64_t len = end - begin;
        if (offset < range_base + len && remaining > 0) {
          const uint64_t local = offset > range_base ? offset - range_base : 0;
          const uint64_t take = std::min<uint64_t>(remaining, len - local);
          const uint64_t touched = process_->gpt().ScanAndClearAccessed(
              begin + local, begin + local + take, visitor);
          tracking_ns += static_cast<double>(touched) * costs.pte_scan_ns;
          remaining -= take;
          offset += take;
        }
        range_base += len;
      }
      offset = 0;
      range_base = 0;
    }
  }
  classify_ns += static_cast<double>(scanned_pages) * config_.classify_ns_per_page;

  // Proactive demotion: keep the FMEM free-page headroom TPP relies on.
  NumaNode& fmem = kernel.node(0);
  const uint64_t target_free = fmem.watermark_high() + promote_candidates.size();
  if (fmem.free_pages() < target_free) {
    const uint64_t need = target_free - fmem.free_pages();
    total_demoted_ += DemoteForHeadroom(
        *vm_, std::min<uint64_t>(need, config_.max_demote_per_scan), now, &migrate_ns);
  }

  // Three-tier hosts: continue the chain one level down, TPP's per-tier
  // wmark demotion generalized. Only once the far tier is actually in use
  // (a host that never spilled must not start taking major faults on its
  // own) and SMEM is out of headroom: proactively push this VM's cold
  // SMEM-backed frames to swap so demotions out of FMEM keep a near tier
  // to land in (FMEM -> CXL -> swap). The helper clock-scans EPT A bits
  // and pays its own batched flush.
  Hypervisor& host = vm_->host();
  if (host.swap() != nullptr && host.memory().UsedPages(kSwapTier) > 0 &&
      host.memory().FreePages(kSmemTier) < config_.max_demote_per_scan) {
    total_far_demoted_ +=
        FarDemoteForHeadroom(*vm_, config_.max_demote_per_scan, now, &migrate_ns);
  }

  // Hint-fault-driven promotion: each promotion pays a software page fault
  // before the sequential migrate (the dominant TPP cost in Figure 7).
  // Skipped wholesale while the host shrinks FMEM; the hit streaks survive
  // so candidates re-qualify immediately on the next scan.
  if (PromotionThrottled(*vm_)) {
    promote_candidates.clear();
  }
  for (PageNum vpn : promote_candidates) {
    migrate_ns += costs.guest_fault_ns;
    if (vm_->MovePage(*process_, vpn, /*dst_node=*/0, now, &migrate_ns)) {
      ++total_promoted_;
      Streak(vpn) = 0;
    } else {
      break;  // FMEM dry despite demotion; retry next scan.
    }
  }

  const double total = tracking_ns + classify_ns + migrate_ns;
  vm_->vcpu(0).clock_ns += total;
  vm_->mgmt_account().Charge(TmmStage::kTracking, static_cast<Nanos>(tracking_ns));
  vm_->mgmt_account().Charge(TmmStage::kClassification, static_cast<Nanos>(classify_ns));
  vm_->mgmt_account().Charge(TmmStage::kMigration, static_cast<Nanos>(migrate_ns));
  TraceMigrationBatch(*vm_, name(), now, migrate_ns, total_promoted_ - promoted_before,
                      total_demoted_ - demoted_before);

  ScheduleNext(now);
}

void TppPolicy::ScheduleNext(Nanos now) {
  if (stopped_) {
    return;
  }
  vm_->host().events().Schedule(now + config_.scan_period, [this, alive = alive_](Nanos fire) {
    if (*alive) {
      RunScan(fire);
    }
  });
}

}  // namespace demeter
