// FMEM overcommit scheduler.
//
// Under overcommit the host deliberately provisions less physical FMEM than
// the sum of the VMs' fast-node demand (ratio R > 1.0 of demand to
// capacity). Something has to give when every guest tries to realize its
// demand at once; without arbitration the outcome is whoever faults first
// wins, and the losers spill page-by-page through PopulateEpt's fallback
// chain (FMEM -> SMEM -> swap) with no regard for per-VM fairness.
//
// The scheduler closes that gap with the double balloon (§3.3): on a
// periodic tick it checks FMEM's free-page watermark, and while the tier is
// below the low watermark it picks the VM whose guest fast-node residency
// exceeds its fair share by the most and asks (via the spill callback,
// wired by the harness to that VM's DemeterBalloon) for that VM to give
// back fast-node pages. The guest then demotes its coldest fast-node pages
// itself — guest delegation, exactly the paper's division of labor — and
// the freed frames take the pressure off FMEM; meanwhile the demoted pages
// land in SMEM or, when SMEM is also full, the far swap tier. When the
// tier recovers above the high watermark, balloons are deflated (smallest
// residency first) so a transient spike does not permanently shrink a VM.
//
// Ticks are EventQueue events, guarded by the usual alive-flag so a
// machine teardown mid-schedule cannot fire into a dead scheduler.

#ifndef DEMETER_SRC_HYPER_OVERCOMMIT_H_
#define DEMETER_SRC_HYPER_OVERCOMMIT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/units.h"
#include "src/telemetry/metrics.h"

namespace demeter {

class Hypervisor;

struct OvercommitConfig {
  bool enabled = false;
  // Largest balloon delta requested per tick (bounds per-tick guest work).
  uint64_t max_batch_pages = 256;
};

class OvercommitScheduler {
 public:
  struct Stats {
    uint64_t ticks = 0;
    uint64_t spill_requests = 0;    // Inflate arbitrations issued.
    uint64_t pages_requested = 0;   // Pages asked back across all spills.
    uint64_t refill_requests = 0;   // Deflate arbitrations issued.
    uint64_t pages_refilled = 0;    // Pages released back across refills.
    uint64_t no_victim = 0;         // Pressure ticks with nobody to squeeze.
  };

  // The spill callback applies one arbitration decision: delta_pages > 0
  // asks `vm` to give back fast-node pages (balloon inflate on node 0),
  // delta_pages < 0 returns them (deflate). Returns false when the VM has
  // no double balloon (the scheduler then tries the next candidate).
  using SpillRequest = std::function<bool(int vm, int64_t delta_pages, Nanos now)>;

  // True when `vm` currently holds resources on this host and should count
  // toward (and be squeezable for) the fair share. The harness wires
  // "booted and not departed": a deferred-boot VM that has not booted yet
  // holds no pages and must not dilute the divisor; a VM that finished but
  // still resides keeps its share (it still holds its pages); departed /
  // extracted VMs hold nothing. Unset, the scheduler falls back to its old
  // `!departed()` test — which wrongly counts unbooted VMs.
  using ResidentFn = std::function<bool(int vm)>;

  OvercommitScheduler(Hypervisor* hyper, const OvercommitConfig& config);
  ~OvercommitScheduler();

  const OvercommitConfig& config() const { return config_; }
  const Stats& stats() const { return stats_; }

  void set_spill_request(SpillRequest spill) { spill_ = std::move(spill); }
  void set_resident(ResidentFn resident) { resident_ = std::move(resident); }

  // Arms the periodic tick (first fires one period in, after boot-time
  // provisioning). No-op when disabled or no spill callback is wired.
  void Start();

  // One arbitration pass; exposed for tests. Normally driven by the tick.
  void Arbitrate(Nanos now);

  // Registers counters under `scope` (the harness passes "host/overcommit").
  void RegisterMetrics(MetricScope scope);

 private:
  void Tick(Nanos now);
  bool Resident(int vm) const;

  Hypervisor* hyper_;
  OvercommitConfig config_;
  SpillRequest spill_;
  ResidentFn resident_;
  Stats stats_;
  // Balloon pages the scheduler itself has taken per VM (grows on spill,
  // shrinks on refill); refills never exceed what was taken, so the
  // scheduler cannot deflate a balloon below its provisioning baseline.
  std::vector<uint64_t> taken_pages_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace demeter

#endif  // DEMETER_SRC_HYPER_OVERCOMMIT_H_
