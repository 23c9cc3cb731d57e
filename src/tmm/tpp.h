// G-TPP: the kernel-based TPP design (ASPLOS'23) run directly inside the
// guest, as the paper's strongest guest-based baseline.
//
// Tracking uses PTE.A-bit scanning over the guest page table: each scan
// clears A bits, which requires a single-gVA TLB invalidation per cleared
// entry to re-arm observation (the guest knows the gVA, so no full flush —
// the G-TPP row of Table 1). Promotion is NUMA-hint-fault driven: a page
// observed accessed in `promote_after_hits` consecutive scans takes a
// hint fault and migrates to FMEM. Proactive demotion keeps a free-page
// headroom in FMEM, migrating FIFO victims to SMEM. Migrations are
// sequential allocate-copy-remap (temporary-page style), not balanced swaps.
// On three-tier hosts the demotion chain continues per TPP's per-tier
// watermarks: when host SMEM headroom runs low, cold SMEM-backed frames are
// host-migrated down to the far swap tier (FMEM -> CXL -> swap, never
// FMEM -> swap directly), and swap-backed pages skip the hit-streak
// threshold on promotion (every access is a major fault).

#ifndef DEMETER_SRC_TMM_TPP_H_
#define DEMETER_SRC_TMM_TPP_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/base/units.h"
#include "src/core/policy.h"

namespace demeter {

struct TppConfig {
  Nanos scan_period = 200 * kMillisecond;
  int promote_after_hits = 2;
  uint64_t max_promote_per_scan = 128;
  uint64_t max_demote_per_scan = 256;
  double classify_ns_per_page = 6.0;  // LRU list maintenance per scanned page.
  // Address-space pages covered per scan round (NUMA-balancing-style rate
  // limit); the cursor wraps across scans.
  uint64_t scan_chunk_pages = 4096;
};

class TppPolicy : public TmmPolicy {
 public:
  explicit TppPolicy(TppConfig config = TppConfig{});

  const char* name() const override { return "tpp"; }
  void Attach(Vm& vm, GuestProcess& process, Nanos start) override;

  void RegisterMetrics(MetricScope scope) override {
    scope.RegisterCounter("scans_run", &scans_run_);
    scope.RegisterCounter("pages_promoted", &total_promoted_);
    scope.RegisterCounter("pages_demoted", &total_demoted_);
    scope.RegisterCounter("pages_far_demoted", &total_far_demoted_);
  }

  uint64_t scans_run() const { return scans_run_; }
  uint64_t total_promoted() const { return total_promoted_; }
  uint64_t total_demoted() const { return total_demoted_; }
  uint64_t total_far_demoted() const { return total_far_demoted_; }

 private:
  // Consecutive scans a tracked page was seen accessed on a slow node, one
  // byte per page (so a streak wraps at 256; 0 = none), per tracked range.
  // A range is keyed by its first page: a tracked VMA keeps its start and
  // only grows at its end.
  struct RangeStreaks {
    PageNum begin = 0;
    std::vector<uint8_t> hits;  // Indexed by vpn - begin.
  };

  void RunScan(Nanos now);
  void ScheduleNext(Nanos now);
  // Gives every tracked range its streak bytes, sized to the range.
  void FitStreaks(const std::vector<std::pair<PageNum, PageNum>>& ranges);
  uint8_t& Streak(PageNum vpn);

  TppConfig config_;
  Vm* vm_ = nullptr;
  GuestProcess* process_ = nullptr;
  std::vector<RangeStreaks> hit_streak_;
  uint64_t scan_cursor_ = 0;  // Page offset into the concatenated tracked span.
  uint64_t scans_run_ = 0;
  uint64_t total_promoted_ = 0;
  uint64_t total_demoted_ = 0;
  uint64_t total_far_demoted_ = 0;  // SMEM -> swap (three-tier hosts only).
};

}  // namespace demeter

#endif  // DEMETER_SRC_TMM_TPP_H_
