// The Demeter guest-delegated TMM engine (§3.2).
//
// Wiring, per attached VM:
//   * every vCPU's PEBS unit is enabled with the load-latency event at a
//     small constant sample period (default 1/4093) and a 64 ns latency
//     threshold;
//   * samples drain at context switches (no dedicated polling thread) into
//     a bounded sample queue; PMIs also drain (they are rare by design);
//   * every epoch (t_split = 500 ms) the classifier drains the queue —
//     gVA samples feed the range tree directly, with NO per-sample address
//     translation — then splits/decays/merges, ranks ranges, and runs
//     balanced relocation against the current FMEM budget (balloon-aware:
//     the budget is node 0's present size).
//
// All engine work is charged to vCPU 0's clock (a kernel thread stealing
// guest time) and recorded per stage in the VM's management account.

#ifndef DEMETER_SRC_CORE_DEMETER_POLICY_H_
#define DEMETER_SRC_CORE_DEMETER_POLICY_H_

#include <cstdint>
#include <memory>

#include "src/base/units.h"
#include "src/core/policy.h"
#include "src/core/range_tree.h"
#include "src/core/relocator.h"
#include "src/guest/bounded_queue.h"
#include "src/pebs/pebs.h"

namespace demeter {

// Host-side fallback for unresponsive guests. Only active on faulted runs
// (the harness arms it when a fault plan exists): a watchdog on the
// hypervisor side observes epoch progress; when the guest engine has made
// none for `unresponsive_after`, the host takes over tiering — it drains
// the PEBS sample queue itself, pays the software gVA->gPA translation
// the delegated engine avoids, and migrates host-side by sample frequency
// until the guest catches up.
struct DegradationConfig {
  bool enabled = true;               // false = no-fallback ablation.
  Nanos unresponsive_after = 0;      // 0 -> 3 * epoch_length at attach.
  Nanos watchdog_period = 0;         // 0 -> epoch_length at attach.
  // Cadence of host management rounds while degraded. Defaults to a
  // multiple of the watchdog period; benches that know the workload's
  // drift rate set it to the guest's own epoch length.
  Nanos host_round_period = 0;       // 0 -> 3 * watchdog_period at attach.
  uint64_t host_batch_pages = 128;   // Promotions per host round.
};

struct DemeterConfig {
  RangeTreeConfig range;
  RelocatorConfig relocator;
  // PEBS parameters applied to every vCPU at attach (overriding VmConfig).
  uint64_t sample_period = 4093;
  double latency_threshold_ns = 64.0;
  // Cost constants for engine work.
  double drain_ns_per_record = 15.0;       // Context-switch buffer drain.
  double classify_ns_per_sample = 25.0;    // Channel pop + tree update.
  double classify_ns_per_range = 40.0;     // Split/merge/rank per leaf.

  // ---- Ablation switches (each disables one Demeter design decision) ----
  // false: a dedicated polling kthread drains PEBS buffers on a short
  // period instead of the context-switch hook (HeMem/Memtis style).
  bool drain_on_context_switch = true;
  Nanos poll_period = 1 * kMillisecond;  // Used when polling.
  double poll_fixed_ns = 2000.0;
  // false: classify in guest-PHYSICAL address space — every sample pays a
  // software translation, and (with a fragmented allocator) gPA ranges
  // carry no locality, so refinement stalls (the Figure 4 insight).
  bool classify_virtual = true;
  double translate_ns_per_sample = 170.0;

  DegradationConfig degradation;
};

class DemeterPolicy : public TmmPolicy {
 public:
  explicit DemeterPolicy(DemeterConfig config = DemeterConfig{});

  const char* name() const override { return "demeter"; }
  void Attach(Vm& vm, GuestProcess& process, Nanos start) override;

  void RegisterMetrics(MetricScope scope) override {
    scope.RegisterCounter("epochs_run", &epochs_run_);
    scope.RegisterCounter("pages_promoted", &total_promoted_);
    scope.RegisterCounter("pages_demoted", &total_demoted_);
    // Degradation counters only exist on faulted runs, so fault-free
    // metric output is unchanged.
    if (injector_armed_) {
      scope.RegisterCounter("epochs_deferred", &epochs_deferred_);
    }
    if (watchdog_armed_) {
      scope.RegisterCounter("degraded_entries", &degraded_entries_);
      scope.RegisterCounter("recoveries", &recoveries_);
      scope.RegisterCounter("host_migrations", &host_migrations_);
      scope.RegisterCounter("degraded_ns", &degraded_ns_);
      scope.RegisterCounter("host_rounds_throttled", &host_rounds_throttled_);
    }
  }

  const RangeTree& tree() const { return *tree_; }
  const RelocationResult& last_relocation() const { return last_relocation_; }
  uint64_t total_promoted() const { return total_promoted_; }
  uint64_t total_demoted() const { return total_demoted_; }
  uint64_t epochs_run() const { return epochs_run_; }

  // Degradation observability (for tests and the resilience bench).
  bool degraded() const { return degraded_; }
  uint64_t degraded_entries() const { return degraded_entries_; }
  uint64_t recoveries() const { return recoveries_; }
  uint64_t degraded_ns() const { return degraded_ns_; }
  uint64_t epochs_deferred() const { return epochs_deferred_; }

 private:
  void SyncRegions();
  void SyncPhysicalRegions();
  void RunEpoch(Nanos now);
  void RunPoll(Nanos now);
  void ScheduleNext(Nanos now);
  // Degradation machinery (faulted runs only).
  void RunWatchdog(Nanos now);
  void HostManageRound(Nanos now);
  // Relocation driven by gPA ranges (classify_virtual == false).
  RelocationResult RelocatePhysical(const std::vector<HotRange>& ranked, size_t hot_prefix,
                                    Nanos now);

  DemeterConfig config_;
  Vm* vm_ = nullptr;
  GuestProcess* process_ = nullptr;
  std::unique_ptr<RangeTree> tree_;
  BalancedRelocator relocator_;
  // Sampled gVAs awaiting the classifier. Storage grows with the samples
  // queued; the cap sheds load when the classifier falls behind.
  static constexpr size_t kSampleQueueCapacity = 1 << 16;
  BoundedQueue<uint64_t> samples_{kSampleQueueCapacity};
  RelocationResult last_relocation_;
  uint64_t total_promoted_ = 0;
  uint64_t total_demoted_ = 0;
  uint64_t epochs_run_ = 0;
  uint64_t heap_synced_end_ = 0;
  size_t vmas_synced_ = 0;
  // DegradationState: kDelegated (guest engine runs) <-> kDegraded (host
  // fallback manages). Armed flags split observation from actuation so the
  // no-fallback ablation still *suffers* stalls without recovering.
  bool injector_armed_ = false;  // A fault plan exists: epochs can defer.
  bool watchdog_armed_ = false;  // injector_armed_ && degradation.enabled.
  bool degraded_ = false;
  Nanos last_epoch_done_ = 0;
  Nanos degraded_since_ = 0;
  Nanos unresponsive_after_ = 0;
  Nanos watchdog_period_ = 0;
  Nanos host_round_period_ = 0;
  Nanos next_host_round_ = 0;
  uint64_t epochs_deferred_ = 0;
  uint64_t degraded_entries_ = 0;
  uint64_t recoveries_ = 0;
  // Host rounds that found FMEM mid-shrink and skipped re-tiering.
  uint64_t host_rounds_throttled_ = 0;
  uint64_t host_migrations_ = 0;
  uint64_t degraded_ns_ = 0;
};

}  // namespace demeter

#endif  // DEMETER_SRC_CORE_DEMETER_POLICY_H_
