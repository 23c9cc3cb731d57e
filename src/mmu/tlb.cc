#include "src/mmu/tlb.h"

#include <algorithm>

#include "src/base/logging.h"

namespace demeter {

Tlb::Tlb(int num_sets, int ways) : num_sets_(num_sets), ways_(ways) {
  DEMETER_CHECK_GE(num_sets, 1);
  DEMETER_CHECK_GE(ways, 1);
  DEMETER_CHECK_LE(ways, kMaxWays);
  set_magic_ = UINT64_MAX / static_cast<uint64_t>(num_sets) + 1;  // Wraps to 0 for one set.
  const size_t cap = static_cast<size_t>(num_sets) * static_cast<size_t>(ways);
  tags_.resize(cap, 0);  // Sentinel: everything starts invalid.
  frames_.resize(cap, 0);  // Read only behind a live tag.
  // Any starting order will do: a way's place only matters once the way is
  // live, and filling it moves it to the front.
  uint32_t order = 0;
  for (int w = ways - 1; w >= 0; --w) {
    order = (order << 4) | static_cast<uint32_t>(w);
  }
  order_.assign(static_cast<size_t>(num_sets), order);
}

void Tlb::ReleaseStorage() {
  set_magic_ = 0;
  std::vector<uint64_t>(static_cast<size_t>(ways_), 0).swap(tags_);
  std::vector<uint32_t>(static_cast<size_t>(ways_), 0).swap(frames_);
  std::vector<uint32_t>(1, order_[0]).swap(order_);
}

void Tlb::InvalidateAll() {
  ++stats_.full_flushes;
  // Epoch bump: every existing entry becomes stale without being touched.
  // At the top of the 28-bit field, zero every tag instead and restart at
  // epoch 1, so no entry tagged with an old epoch 1 can come back.
  if (epoch_ == kMaxEpoch) {
    std::fill(tags_.begin(), tags_.end(), 0);
    epoch_ = 1;
  } else {
    ++epoch_;
  }
  // Paging-structure caches are gone too; the next ~capacity misses walk
  // cold. A second invalidation before the rewarm completes cannot make the
  // caches any colder — it only restarts the rewarm window — so the budget
  // RESETS to one capacity instead of stacking (back-to-back chunked
  // MMU-notifier scans used to accumulate up to 4x, overcharging refills).
  cold_walks_ = static_cast<uint64_t>(capacity());
}

}  // namespace demeter
