#include "src/tmm/memtis.h"

#include <algorithm>
#include <vector>

#include "src/base/logging.h"
#include "src/hyper/hypervisor.h"
#include "src/tmm/policy_util.h"

namespace demeter {

MemtisPolicy::MemtisPolicy(MemtisConfig config) : config_(config) {}

void MemtisPolicy::Attach(Vm& vm, GuestProcess& process, Nanos start) {
  DEMETER_CHECK(vm_ == nullptr);
  vm_ = &vm;
  process_ = &process;
  for (int i = 0; i < vm.num_vcpus(); ++i) {
    PebsConfig pebs = vm.config().pebs;
    pebs.sample_period = config_.sample_period;
    pebs.latency_threshold_ns = config_.latency_threshold_ns;
    vm.vcpu(i).pebs = std::make_unique<PebsUnit>(pebs);
    vm.vcpu(i).pebs->BindFault(vm.host().fault_injector(), vm.id());
    vm.vcpu(i).pebs->set_enabled(true);
    // PMI handler processes the overflowing buffer inline (translation +
    // histogram), charging the interrupted vCPU — at this sample frequency
    // overshoots are common (§3.2.2).
    Vcpu* vcpu = &vm.vcpu(i);
    vm.vcpu(i).pebs->set_pmi_handler([this, alive = alive_,
                                      vcpu](std::vector<PebsRecord>&& records, Nanos) {
      if (!*alive) {
        return;
      }
      const double cost =
          static_cast<double>(records.size()) *
          (config_.translate_ns_per_sample + config_.histogram_ns_per_sample);
      vcpu->clock_ns += cost;
      vm_->mgmt_account().Charge(TmmStage::kPmi, static_cast<Nanos>(cost));
      for (const PebsRecord& r : records) {
        page_counts_[PageOf(r.gva)] += 1.0;
        ++samples_processed_;
      }
    });
  }
  vm.host().events().Schedule(start + config_.poll_period, [this, alive = alive_](Nanos fire) {
    if (*alive) {
      RunPoll(fire);
    }
  });
  vm.host().events().Schedule(start + config_.classify_period, [this, alive = alive_](Nanos fire) {
    if (*alive) {
      RunClassify(fire);
    }
  });
}

void MemtisPolicy::RunPoll(Nanos now) {
  if (stopped_) {
    return;
  }
  // Dedicated collection kthread: wake, drain every vCPU buffer, translate
  // each sample to a physical page, update the histogram.
  double cost = config_.poll_fixed_ns;
  for (int i = 0; i < vm_->num_vcpus(); ++i) {
    auto records = vm_->vcpu(i).pebs->Drain();
    cost += static_cast<double>(records.size()) *
            (config_.translate_ns_per_sample + config_.histogram_ns_per_sample);
    for (const PebsRecord& r : records) {
      page_counts_[PageOf(r.gva)] += 1.0;
      ++samples_processed_;
    }
  }
  vm_->vcpu(0).clock_ns += cost;  // The kthread occupies a vCPU.
  vm_->mgmt_account().Charge(TmmStage::kTracking, static_cast<Nanos>(cost));
  vm_->host().events().Schedule(now + config_.poll_period, [this, alive = alive_](Nanos fire) {
    if (*alive) {
      RunPoll(fire);
    }
  });
}

void MemtisPolicy::RunClassify(Nanos now) {
  if (stopped_) {
    return;
  }
  const uint64_t promoted_before = total_promoted_;
  const uint64_t demoted_before = total_demoted_;
  double classify_ns = 0.0;
  double migrate_ns = 0.0;
  GuestKernel& kernel = vm_->kernel();

  // Page-granular histogram: promote pages whose decayed count clears the
  // hot threshold, hottest first, within the FMEM budget.
  std::vector<std::pair<PageNum, double>> hot;
  for (const auto& [vpn, count] : page_counts_) {
    if (count >= config_.hot_count_threshold) {
      hot.emplace_back(vpn, count);
    }
  }
  std::sort(hot.begin(), hot.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  // Three-tier hosts: swap-backed hot pages jump the queue. Each sampled
  // access to one was a device read, so per unit of hotness they buy back
  // far more latency than an SMEM page (level-skip promotion).
  if (vm_->host().swap() != nullptr) {
    std::stable_partition(hot.begin(), hot.end(), [this](const auto& entry) {
      return SwapBacked(*vm_, *process_, entry.first);
    });
  }
  classify_ns += static_cast<double>(page_counts_.size()) * 20.0;

  uint64_t migrated = 0;
  // The histogram halves below either way, so a throttled round costs no
  // accuracy — the still-hot pages re-cross the threshold next epoch.
  const bool throttled = PromotionThrottled(*vm_);
  for (const auto& [vpn, count] : hot) {
    if (throttled || migrated >= config_.max_migrate_per_epoch) {
      break;
    }
    if (vm_->NodeOfVpn(*process_, vpn) != 1) {
      continue;  // Already in FMEM (or unmapped).
    }
    // Sequential migration: demote for room when FMEM is tight.
    if (kernel.node(0).free_pages() <= kernel.node(0).watermark_min()) {
      if (DemoteForHeadroom(*vm_, 1, now, &migrate_ns) == 0) {
        break;
      }
      ++total_demoted_;
    }
    if (vm_->MovePage(*process_, vpn, /*dst_node=*/0, now, &migrate_ns)) {
      ++total_promoted_;
      ++migrated;
    }
  }

  // Histogram cooling.
  for (auto it = page_counts_.begin(); it != page_counts_.end();) {
    it->second /= 2.0;
    if (it->second < 0.5) {
      it = page_counts_.erase(it);
    } else {
      ++it;
    }
  }

  vm_->vcpu(0).clock_ns += classify_ns + migrate_ns;
  vm_->mgmt_account().Charge(TmmStage::kClassification, static_cast<Nanos>(classify_ns));
  vm_->mgmt_account().Charge(TmmStage::kMigration, static_cast<Nanos>(migrate_ns));
  TraceMigrationBatch(*vm_, name(), now, migrate_ns, total_promoted_ - promoted_before,
                      total_demoted_ - demoted_before);
  vm_->host().events().Schedule(now + config_.classify_period, [this, alive = alive_](Nanos fire) {
    if (*alive) {
      RunClassify(fire);
    }
  });
}

}  // namespace demeter
