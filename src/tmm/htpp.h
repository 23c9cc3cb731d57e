// H-TPP: TPP's PTE.A scanning backend ported to the hypervisor via the KVM
// MMU-notifier interface — the paper's hypervisor-based comparison point
// (§2.3.1, §5.4).
//
// The hypervisor sees only gPA/hPA. Every scan must therefore end with a
// full EPT invalidation (invept) on every vCPU to re-arm A-bit observation
// — the destructive flush Table 1 measures — and host-side migrations
// (EPT remaps) need another full flush per batch. Scan and migration CPU
// time burns host cores (recorded in the management account) instead of
// stealing guest time, which is why the paper gives TPP-H extra DRAM
// headroom: the real damage is done through TLB misses in the guest.

#ifndef DEMETER_SRC_TMM_HTPP_H_
#define DEMETER_SRC_TMM_HTPP_H_

#include <cstdint>
#include <vector>

#include "src/base/units.h"
#include "src/core/policy.h"

namespace demeter {

struct HTppConfig {
  Nanos scan_period = 200 * kMillisecond;
  int promote_after_hits = 2;
  uint64_t max_promote_per_scan = 256;
  double classify_ns_per_page = 6.0;
  // Present PTEs per MMU-notifier invalidation chunk (one invept each).
  uint64_t flush_chunk_pages = 1024;
};

class HTppPolicy : public TmmPolicy {
 public:
  explicit HTppPolicy(HTppConfig config = HTppConfig{});

  const char* name() const override { return "tpp-h"; }
  void Attach(Vm& vm, GuestProcess& process, Nanos start) override;

  void RegisterMetrics(MetricScope scope) override {
    scope.RegisterCounter("scans_run", &scans_run_);
    scope.RegisterCounter("pages_promoted", &total_promoted_);
    scope.RegisterCounter("pages_demoted", &total_demoted_);
  }

  uint64_t scans_run() const { return scans_run_; }
  uint64_t total_promoted() const { return total_promoted_; }
  uint64_t total_demoted() const { return total_demoted_; }

 private:
  void RunScan(Nanos now);
  void ScheduleNext(Nanos now);

  HTppConfig config_;
  Vm* vm_ = nullptr;
  // Consecutive scans each gPA was seen accessed, one byte per gPA (so a
  // streak wraps at 256; 0 = none), grown to the highest gPA that hit.
  std::vector<uint8_t> hit_streak_;
  uint64_t scans_run_ = 0;
  uint64_t total_promoted_ = 0;
  uint64_t total_demoted_ = 0;
};

}  // namespace demeter

#endif  // DEMETER_SRC_TMM_HTPP_H_
