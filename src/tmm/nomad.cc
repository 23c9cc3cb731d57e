#include "src/tmm/nomad.h"

#include <vector>

#include "src/base/logging.h"
#include "src/hyper/hypervisor.h"
#include "src/tmm/policy_util.h"

namespace demeter {

NomadPolicy::NomadPolicy(NomadConfig config) : config_(config) {}

void NomadPolicy::Attach(Vm& vm, GuestProcess& process, Nanos start) {
  DEMETER_CHECK(vm_ == nullptr);
  vm_ = &vm;
  process_ = &process;
  ScheduleNext(start);
}

bool NomadPolicy::TransactionalMove(PageNum vpn, int dst_node, Nanos now, double* cost_ns) {
  const MmuCosts& costs = vm_->config().mmu_costs;
  // Shadow setup: write-protect the page (fault on next store).
  *cost_ns += config_.shadow_setup_fault_ns;
  // Copy attempts: a concurrent write dirties the page mid-copy and aborts.
  HostMemory& memory = vm_->host().memory();
  const auto gpt_entry = process_->gpt().Lookup(vpn);
  if (!gpt_entry.present) {
    return false;
  }
  const auto ept_entry = vm_->ept().Lookup(gpt_entry.target);
  const TierIndex src_tier =
      ept_entry.present ? memory.TierOf(ept_entry.target) : kFmemTier;
  // A swapped-out page has no writers — nothing can dirty it mid-copy, so
  // the shadow copy trivially commits and the dirty-abort lottery is
  // skipped (MovePage below pays the device swap-in). Three-tier only.
  if (src_tier == kSwapTier) {
    return vm_->MovePage(*process_, vpn, dst_node, now, cost_ns);
  }
  for (int attempt = 0; attempt < config_.max_copy_retries; ++attempt) {
    // Shadow copy of the page contents while still mapped.
    *cost_ns += memory.tier(src_tier).AccessCost(now, kPageSize, /*is_write=*/false);
    if (!vm_->rng().NextBool(config_.dirty_abort_probability)) {
      break;  // Copy committed cleanly.
    }
    ++transaction_aborts_;
    *cost_ns += costs.guest_fault_ns;  // Abort handling.
    if (attempt + 1 == config_.max_copy_retries) {
      return false;  // Give up this scan round.
    }
  }
  return vm_->MovePage(*process_, vpn, dst_node, now, cost_ns);
}

void NomadPolicy::RunScan(Nanos now) {
  if (stopped_) {
    return;
  }
  const uint64_t promoted_before = total_promoted_;
  const uint64_t demoted_before = total_demoted_;
  double tracking_ns = 0.0;
  double classify_ns = 0.0;
  double migrate_ns = 0.0;
  GuestKernel& kernel = vm_->kernel();
  const MmuCosts& costs = vm_->config().mmu_costs;

  // A-bit scan; aggressive: one observed access makes a promotion candidate.
  std::vector<PageNum> promote;
  uint64_t scanned = 0;
  for (const auto& [begin, end] : TrackedPageRanges(*process_)) {
    const uint64_t touched = process_->gpt().ScanAndClearAccessed(
        begin, end, [&](PageNum vpn, uint64_t gpa, bool accessed, bool) {
          ++scanned;
          if (!accessed) {
            return;
          }
          vm_->FlushGvaAll(vpn);
          tracking_ns += vm_->SingleFlushCost();
          if (kernel.NodeOfGpa(gpa) != 0 && promote.size() < config_.max_promote_per_scan) {
            promote.push_back(vpn);
          }
        });
    tracking_ns += static_cast<double>(touched) * costs.pte_scan_ns;
  }
  classify_ns += static_cast<double>(scanned) * config_.classify_ns_per_page;

  // Room for shadows + promotions.
  NumaNode& fmem = kernel.node(0);
  const uint64_t target_free = fmem.watermark_high() + promote.size();
  if (fmem.free_pages() < target_free) {
    const uint64_t need = target_free - fmem.free_pages();
    uint64_t budget = std::min<uint64_t>(need, config_.max_demote_per_scan);
    uint64_t done = 0;
    while (done < budget) {
      auto victim = kernel.PickVictim(0);
      if (!victim.has_value()) {
        break;
      }
      const std::optional<RmapEntry> rmap = kernel.Rmap(*victim);
      GuestProcess* proc = kernel.process(rmap->pid);
      if (proc == nullptr || !TransactionalMove(rmap->vpn, 1, now, &migrate_ns)) {
        break;
      }
      ++total_demoted_;
      ++done;
    }
  }

  // Shadow copies into a shrinking FMEM would abort against backpressure
  // after paying their setup faults; cheaper to sit the round out.
  if (!PromotionThrottled(*vm_)) {
    for (PageNum vpn : promote) {
      if (TransactionalMove(vpn, 0, now, &migrate_ns)) {
        ++total_promoted_;
      }
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

void NomadPolicy::ScheduleNext(Nanos now) {
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
