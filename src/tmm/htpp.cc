#include "src/tmm/htpp.h"

#include <vector>

#include "src/base/logging.h"
#include "src/hyper/hypervisor.h"
#include "src/tmm/policy_util.h"

namespace demeter {

HTppPolicy::HTppPolicy(HTppConfig config) : config_(config) {}

void HTppPolicy::Attach(Vm& vm, GuestProcess& process, Nanos start) {
  (void)process;  // Hypervisor-based: the guest interior is opaque.
  DEMETER_CHECK(vm_ == nullptr);
  vm_ = &vm;
  ScheduleNext(start);
}

void HTppPolicy::RunScan(Nanos now) {
  if (stopped_) {
    return;
  }
  ++scans_run_;
  const uint64_t promoted_before = total_promoted_;
  const uint64_t demoted_before = total_demoted_;
  double tracking_ns = 0.0;
  double classify_ns = 0.0;
  double migrate_ns = 0.0;
  Hypervisor& host = vm_->host();
  HostMemory& memory = host.memory();
  const MmuCosts& costs = vm_->config().mmu_costs;

  // MMU-notifier scan of the EPT: collect A bits per backed gPA, then the
  // unavoidable full invept on every vCPU (issued by the helper).
  struct Seen {
    PageNum gpa;
    bool accessed;
    TierIndex tier;
  };
  std::vector<Seen> snapshot;
  const uint64_t touched = host.ScanEptAccessedAndFlush(*vm_, [&](PageNum gpa, FrameId frame,
                                                                  bool accessed) {
    snapshot.push_back(Seen{gpa, accessed, memory.TierOf(frame)});
  });
  tracking_ns += static_cast<double>(touched) * costs.pte_scan_ns;
  tracking_ns += vm_->FullFlushCost();
  // MMU notifiers invalidate as they go: one invept per scanned chunk, not
  // one per scan, and the chunks land throughout the scan period — so the
  // guest's paging-structure caches never get a chance to stay warm.
  const size_t extra_flushes =
      snapshot.size() > config_.flush_chunk_pages
          ? (snapshot.size() - 1) / config_.flush_chunk_pages
          : 0;
  for (size_t f = 1; f <= extra_flushes; ++f) {
    const Nanos when = now + static_cast<Nanos>(f) * config_.scan_period /
                                 static_cast<Nanos>(extra_flushes + 1);
    vm_->host().events().Schedule(when, [this, alive = alive_](Nanos) {
      if (*alive && !stopped_) {
        vm_->FullFlushAll();
      }
    });
    tracking_ns += vm_->FullFlushCost();
  }
  classify_ns += static_cast<double>(snapshot.size()) * config_.classify_ns_per_page;

  // Classification by gPA access streaks (no gVA locality available). The
  // promote list already covers the far swap tier (`tier != kFmemTier`), so
  // a hot swapped-out page skips levels straight to FMEM; cold SMEM pages
  // feed the second level of the demotion chain on three-tier hosts.
  const bool has_far = host.swap() != nullptr;
  std::vector<PageNum> promote;
  std::vector<PageNum> demote;
  std::vector<PageNum> far_demote;  // Cold SMEM pages: SMEM -> swap victims.
  for (const Seen& s : snapshot) {
    if (s.accessed) {
      if (s.gpa >= hit_streak_.size()) {
        hit_streak_.resize(s.gpa + 1, 0);
      }
      const int streak = ++hit_streak_[s.gpa];
      if (s.tier != kFmemTier && streak >= config_.promote_after_hits &&
          promote.size() < config_.max_promote_per_scan) {
        promote.push_back(s.gpa);
      }
    } else {
      if (s.gpa < hit_streak_.size()) {
        hit_streak_[s.gpa] = 0;
      }
      if (s.tier == kFmemTier) {
        demote.push_back(s.gpa);
      } else if (has_far && s.tier == kSmemTier) {
        far_demote.push_back(s.gpa);
      }
    }
  }

  // Sequential migration with temporary frames: demote first to make room,
  // then promote. One extra full flush covers the batch of EPT remaps.
  // While the host shrinks FMEM, skip promotions (streaks persist, so the
  // pages re-qualify next scan) — the shrink engine is evicting anyway.
  if (PromotionThrottled(*vm_)) {
    promote.clear();
  }
  size_t demoted_this_scan = 0;
  size_t next_demote = 0;
  size_t next_far_demote = 0;
  uint64_t migrated = 0;
  for (PageNum gpa : promote) {
    if (memory.FreePages(kFmemTier) == 0) {
      // Make room by demoting a cold FMEM page of this VM. On a three-tier
      // host a full SMEM continues the chain: push a cold SMEM page down to
      // the far swap tier first, then retry the FMEM victim into the frame
      // that freed (FMEM -> SMEM -> swap, never FMEM -> swap directly).
      bool made_room = false;
      while (next_demote < demote.size()) {
        const PageNum victim = demote[next_demote++];
        if (host.MigrateGpa(*vm_, victim, kSmemTier, now, &migrate_ns)) {
          ++total_demoted_;
          ++demoted_this_scan;
          made_room = true;
          break;
        }
        while (next_far_demote < far_demote.size()) {
          if (host.MigrateGpa(*vm_, far_demote[next_far_demote++], kSwapTier, now,
                              &migrate_ns)) {
            ++demoted_this_scan;
            break;
          }
        }
        if (host.MigrateGpa(*vm_, victim, kSmemTier, now, &migrate_ns)) {
          ++total_demoted_;
          ++demoted_this_scan;
          made_room = true;
          break;
        }
      }
      if (!made_room) {
        break;
      }
    }
    if (host.MigrateGpa(*vm_, gpa, kFmemTier, now, &migrate_ns)) {
      ++total_promoted_;
      ++migrated;
      hit_streak_[gpa] = 0;  // A promotion candidate has hit, so its byte exists.
    }
  }
  if (migrated + demoted_this_scan > 0) {
    vm_->FullFlushAll();
    migrate_ns += vm_->FullFlushCost();
  }

  // All of this ran on host cores (no vCPU time stolen).
  vm_->mgmt_account().Charge(TmmStage::kTracking, static_cast<Nanos>(tracking_ns));
  vm_->mgmt_account().Charge(TmmStage::kClassification, static_cast<Nanos>(classify_ns));
  vm_->mgmt_account().Charge(TmmStage::kMigration, static_cast<Nanos>(migrate_ns));
  TraceMigrationBatch(*vm_, name(), now, migrate_ns, total_promoted_ - promoted_before,
                      total_demoted_ - demoted_before);

  ScheduleNext(now);
}

void HTppPolicy::ScheduleNext(Nanos now) {
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
