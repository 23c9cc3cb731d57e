#include "src/tmm/damon.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/hyper/hypervisor.h"
#include "src/tmm/policy_util.h"

namespace demeter {

DamonPolicy::DamonPolicy(DamonConfig config) : config_(config) {}

void DamonPolicy::Attach(Vm& vm, GuestProcess& process, Nanos start) {
  DEMETER_CHECK(vm_ == nullptr);
  vm_ = &vm;
  process_ = &process;
  SyncRegions();
  vm.host().events().Schedule(start + config_.sample_interval, [this, alive = alive_](Nanos fire) {
    if (*alive) {
      RunSample(fire);
    }
  });
  vm.host().events().Schedule(start + config_.aggregation_interval,
                                [this, alive = alive_](Nanos fire) {
                                  if (*alive) {
                                    RunAggregation(fire);
                                  }
                                });
}

void DamonPolicy::SyncRegions() {
  // Cover every tracked VMA; new/grown VMAs get appended as fresh regions.
  for (const auto& [begin, end] : TrackedPageRanges(*process_)) {
    const uint64_t start_addr = AddrOfPage(begin);
    const uint64_t end_addr = AddrOfPage(end);
    if (end_addr <= covered_end_) {
      continue;
    }
    const uint64_t from = std::max(start_addr, covered_end_);
    if (from < end_addr) {
      regions_.push_back(Region{from, end_addr, 0});
      covered_end_ = end_addr;
    }
  }
}

void DamonPolicy::RunSample(Nanos now) {
  if (stopped_) {
    return;
  }
  double cost = 0.0;
  for (Region& region : regions_) {
    if (region.pages() == 0) {
      continue;
    }
    // Probe one page of the region: the sampled A bit stands for them all.
    const PageNum vpn = PageOf(region.start) + rng_.NextBelow(region.pages());
    ++probes_;
    cost += config_.probe_cost_ns;
    if (process_->gpt().TestAndClearAccessed(vpn)) {
      ++region.score;
      // Re-arm observation: flush the probed translation.
      vm_->FlushGvaAll(vpn);
      cost += vm_->SingleFlushCost();
    }
  }
  vm_->vcpu(0).clock_ns += cost;
  vm_->mgmt_account().Charge(TmmStage::kTracking, static_cast<Nanos>(cost));
  vm_->host().events().Schedule(now + config_.sample_interval, [this, alive = alive_](Nanos fire) {
    if (*alive) {
      RunSample(fire);
    }
  });
}

void DamonPolicy::SplitAndMerge() {
  // Merge adjacent regions with similar scores (keeps the set bounded).
  for (size_t i = 0; i + 1 < regions_.size() && regions_.size() > config_.min_regions;) {
    Region& a = regions_[i];
    const Region& b = regions_[i + 1];
    const uint32_t diff = a.score > b.score ? a.score - b.score : b.score - a.score;
    if (a.end == b.start && diff <= config_.merge_threshold) {
      a.end = b.end;
      a.score = std::max(a.score, b.score);
      regions_.erase(regions_.begin() + static_cast<long>(i) + 1);
    } else {
      ++i;
    }
  }
  // Split: each region splits once at a random point (exploration) while
  // the region budget allows.
  std::vector<Region> split;
  split.reserve(regions_.size() * 2);
  size_t budget = config_.max_regions > regions_.size()
                      ? config_.max_regions - regions_.size()
                      : 0;
  for (const Region& region : regions_) {
    if (budget == 0 || region.pages() < 2) {
      split.push_back(region);
      continue;
    }
    const uint64_t cut_page = 1 + rng_.NextBelow(region.pages() - 1);
    const uint64_t cut = region.start + cut_page * kPageSize;
    split.push_back(Region{region.start, cut, region.score});
    split.push_back(Region{cut, region.end, region.score});
    --budget;
  }
  regions_ = std::move(split);
}

void DamonPolicy::RunAggregation(Nanos now) {
  if (stopped_) {
    return;
  }
  const uint64_t promoted_before = total_promoted_;
  const uint64_t demoted_before = total_demoted_;
  double migrate_ns = 0.0;
  double classify_ns = static_cast<double>(regions_.size()) * 30.0;
  GuestKernel& kernel = vm_->kernel();
  SyncRegions();

  // DAMOS scheme: promote hot regions' SMEM pages; demote to make room from
  // zero-score regions.
  uint64_t migrated = 0;
  std::vector<const Region*> hot;
  std::vector<const Region*> cold;
  for (const Region& region : regions_) {
    if (region.score >= config_.hot_score) {
      hot.push_back(&region);
    } else if (region.score == 0) {
      cold.push_back(&region);
    }
  }
  size_t cold_idx = 0;
  PageNum cold_cursor = cold.empty() ? 0 : PageOf(cold[0]->start);
  auto demote_one = [&]() -> bool {
    while (cold_idx < cold.size()) {
      const Region& region = *cold[cold_idx];
      for (; cold_cursor < PageOf(region.end); ++cold_cursor) {
        if (vm_->NodeOfVpn(*process_, cold_cursor) == 0) {
          if (vm_->MovePage(*process_, cold_cursor, 1, now, &migrate_ns)) {
            ++total_demoted_;
            ++cold_cursor;
            return true;
          }
        }
      }
      ++cold_idx;
      cold_cursor = cold_idx < cold.size() ? PageOf(cold[cold_idx]->start) : 0;
    }
    return false;
  };
  // Region scores reset each window regardless, so sitting out a shrink
  // window costs nothing: hot regions re-score and retry next aggregation.
  if (PromotionThrottled(*vm_)) {
    hot.clear();
  }
  // Region granularity hides which pages are far: within a hot region,
  // spend the migration budget on swap-backed pages first (every access to
  // one is a device read), then the SMEM rest. Two-tier hosts have no far
  // pass and run the single pass exactly as before.
  const bool has_far = vm_->host().swap() != nullptr;
  for (int pass = has_far ? 0 : 1; pass < 2; ++pass) {
    const bool far_pass = has_far && pass == 0;
    for (const Region* region : hot) {
      for (PageNum vpn = PageOf(region->start);
           vpn < PageOf(region->end) && migrated < config_.max_migrate_per_aggregation;
           ++vpn) {
        if (vm_->NodeOfVpn(*process_, vpn) != 1) {
          continue;
        }
        if (far_pass != SwapBacked(*vm_, *process_, vpn)) {
          continue;
        }
        if (kernel.node(0).free_pages() <= kernel.node(0).watermark_min() && !demote_one()) {
          migrated = config_.max_migrate_per_aggregation;
          break;
        }
        if (vm_->MovePage(*process_, vpn, 0, now, &migrate_ns)) {
          ++total_promoted_;
          ++migrated;
        }
      }
    }
  }

  // New aggregation window.
  SplitAndMerge();
  for (Region& region : regions_) {
    region.score = 0;
  }

  vm_->vcpu(0).clock_ns += classify_ns + migrate_ns;
  vm_->mgmt_account().Charge(TmmStage::kClassification, static_cast<Nanos>(classify_ns));
  vm_->mgmt_account().Charge(TmmStage::kMigration, static_cast<Nanos>(migrate_ns));
  TraceMigrationBatch(*vm_, name(), now, migrate_ns, total_promoted_ - promoted_before,
                      total_demoted_ - demoted_before);
  vm_->host().events().Schedule(now + config_.aggregation_interval,
                                  [this, alive = alive_](Nanos fire) {
                                    if (*alive) {
                                      RunAggregation(fire);
                                    }
                                  });
}

}  // namespace demeter
