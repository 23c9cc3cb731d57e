#include "src/hyper/overcommit.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/hyper/hypervisor.h"

namespace demeter {
namespace {

constexpr Nanos kTickPeriod = kMillisecond;  // Between arbitration rounds.
// Arbitration hysteresis on FMEM free fraction: reclaim below the low
// watermark, stop (and deflate) above the high one.
constexpr double kLowFreeFrac = 0.08;
constexpr double kHighFreeFrac = 0.16;

}  // namespace

OvercommitScheduler::OvercommitScheduler(Hypervisor* hyper, const OvercommitConfig& config)
    : hyper_(hyper), config_(config) {
  DEMETER_CHECK(hyper != nullptr);
}

OvercommitScheduler::~OvercommitScheduler() { *alive_ = false; }

void OvercommitScheduler::Start() {
  if (!config_.enabled || !spill_) {
    return;
  }
  auto alive = alive_;
  hyper_->events().Schedule(kTickPeriod, [this, alive](Nanos fire) {
    if (!*alive) {
      return;
    }
    Tick(fire);
  });
}

void OvercommitScheduler::Tick(Nanos now) {
  ++stats_.ticks;
  Arbitrate(now);
  auto alive = alive_;
  hyper_->events().Schedule(now + kTickPeriod, [this, alive](Nanos fire) {
    if (!*alive) {
      return;
    }
    Tick(fire);
  });
}

bool OvercommitScheduler::Resident(int vm) const {
  return resident_ ? resident_(vm) : !hyper_->vm(vm).departed();
}

void OvercommitScheduler::Arbitrate(Nanos now) {
  if (!spill_) {
    return;
  }
  HostMemory& memory = hyper_->memory();
  const uint64_t capacity = memory.CapacityPages(kFmemTier);
  if (capacity == 0) {
    return;
  }
  taken_pages_.resize(static_cast<size_t>(hyper_->num_vms()), 0);
  const uint64_t free = memory.FreePages(kFmemTier);
  const double free_frac = static_cast<double>(free) / static_cast<double>(capacity);

  if (free_frac < kLowFreeFrac) {
    // Pressure: squeeze the VM whose fast-node residency is the furthest
    // over its fair share. Residency is the guest's node-0 used pages —
    // the double balloon acts on guest nodes, so that is the currency the
    // arbitration trades in. The fair-share divisor is recomputed over the
    // VMs resident *right now*, every tick: under lifecycle churn (deferred
    // boots, departures, ExtractVm/AdoptVm) a stale count would let absent
    // VMs dilute everyone else's share.
    uint64_t active = 0;
    for (int i = 0; i < hyper_->num_vms(); ++i) {
      if (Resident(i)) {
        ++active;
      }
    }
    if (active == 0) {
      return;
    }
    const uint64_t fair = capacity / active;
    const uint64_t target_free =
        static_cast<uint64_t>(kHighFreeFrac * static_cast<double>(capacity));
    uint64_t needed = target_free > free ? target_free - free : 0;
    needed = std::min(needed, config_.max_batch_pages);
    if (needed == 0) {
      return;
    }
    // Candidates ordered by excess over fair share; try until one accepts
    // (a VM without a double balloon cannot be asked to give pages back).
    int victim = -1;
    uint64_t victim_excess = 0;
    for (int i = 0; i < hyper_->num_vms(); ++i) {
      Vm& vm = hyper_->vm(i);
      if (!Resident(i)) {
        continue;
      }
      const uint64_t resident = vm.kernel().node(0).used_pages();
      const uint64_t excess = resident > fair ? resident - fair : 0;
      if (excess > victim_excess) {
        victim = i;
        victim_excess = excess;
      }
    }
    if (victim < 0) {
      ++stats_.no_victim;
      return;
    }
    const uint64_t ask = std::min(needed, victim_excess);
    if (spill_(victim, static_cast<int64_t>(ask), now)) {
      ++stats_.spill_requests;
      stats_.pages_requested += ask;
      taken_pages_[static_cast<size_t>(victim)] += ask;
    } else {
      ++stats_.no_victim;
    }
    return;
  }

  if (free_frac > kHighFreeFrac) {
    // Recovered: hand pages back, most-squeezed VM first, but never more
    // than the surplus above the high watermark (no thrashing).
    const uint64_t target_free =
        static_cast<uint64_t>(kHighFreeFrac * static_cast<double>(capacity));
    const uint64_t surplus = free - target_free;
    int victim = -1;
    uint64_t victim_taken = 0;
    for (int i = 0; i < hyper_->num_vms(); ++i) {
      if (!Resident(i)) {
        continue;
      }
      const uint64_t taken = taken_pages_[static_cast<size_t>(i)];
      if (taken > victim_taken) {
        victim = i;
        victim_taken = taken;
      }
    }
    if (victim < 0) {
      return;
    }
    const uint64_t give =
        std::min({victim_taken, surplus, config_.max_batch_pages});
    if (give > 0 && spill_(victim, -static_cast<int64_t>(give), now)) {
      ++stats_.refill_requests;
      stats_.pages_refilled += give;
      taken_pages_[static_cast<size_t>(victim)] -= give;
    }
  }
}

void OvercommitScheduler::RegisterMetrics(MetricScope scope) {
  scope.RegisterCounter("ticks", &stats_.ticks);
  scope.RegisterCounter("spill_requests", &stats_.spill_requests);
  scope.RegisterCounter("pages_requested", &stats_.pages_requested);
  scope.RegisterCounter("refill_requests", &stats_.refill_requests);
  scope.RegisterCounter("pages_refilled", &stats_.pages_refilled);
  scope.RegisterCounter("no_victim", &stats_.no_victim);
}

}  // namespace demeter
