// Pre-copy live migration between Machines.
//
// A migration runs in epoch-sized rounds over the source VM's EPT dirty
// bits, mirroring QEMU-style dirty logging:
//
//   round 0 (Begin)  — copy every EPT-backed page; enabling dirty logging
//                      costs a full TLB shootdown, and the D bits are
//                      cleared so the next round sees only re-writes.
//   round k (Advance)— copy (and clear) the pages dirtied since round k-1,
//                      again behind a full flush.
//   stop-and-copy    — when the dirty set fits under `stop_copy_pages` (or
//                      `max_precopy_rounds` is exhausted), the VM is paused:
//                      Machine::ExtractVm captures its image and progress,
//                      Machine::AdoptVm rebuilds it on the destination, and
//                      the residual copy plus the rebuild are charged as
//                      downtime on every resumed vCPU clock.
//
// Copy bandwidth is charged to the source VM's management account
// (TmmStage::kMigration): per page, one source-tier read plus 600 ns of
// interconnect. The armed `migratefail` fault aborts a migration once its
// cumulative copy time crosses the per-host window — strictly before
// stop-and-copy, so the source VM was never touched and the abort is
// leak-free by construction.

#ifndef DEMETER_SRC_CLUSTER_LIVE_MIGRATOR_H_
#define DEMETER_SRC_CLUSTER_LIVE_MIGRATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/fault/fault.h"
#include "src/harness/machine.h"

namespace demeter {

struct MigrationConfig {
  int max_precopy_rounds = 4;       // Rounds before forced stop-and-copy.
  uint64_t stop_copy_pages = 256;   // Dirty set small enough to stop-and-copy.
  int max_inflight = 2;             // Cluster-wide concurrent migrations.
  int cooldown_epochs = 4;          // Barriers between evacuations per source.
  // Aborted migrations (migratefail or a fenced destination) re-enter a
  // bounded per-route retry with destination re-selection instead of being
  // dropped. 0 (the default) disables retries.
  int max_retries = 0;
  int retry_backoff_epochs = 2;     // Barriers a route waits between attempts.
};

class LiveMigrator {
 public:
  struct Stats {
    uint64_t started = 0;
    uint64_t completed = 0;
    uint64_t aborted = 0;    // migratefail fired mid-copy; VM stayed on source.
    uint64_t cancelled = 0;  // VM finished/departed mid-precopy.
    uint64_t fenced = 0;     // Route torn down because an endpoint host died.
    uint64_t precopy_rounds = 0;
    uint64_t pages_copied = 0;
    uint64_t downtime_ns_total = 0;  // Stop-and-copy transfer time only.
  };

  // A migration that completed at a barrier: the VM now lives on
  // `dst_host` at index `dst_vm`.
  struct Completion {
    int src_host = -1;
    int src_vm = -1;
    int dst_host = -1;
    int dst_vm = -1;
  };

  // A not-yet-materialized claim on a host's memory, split the way the VM's
  // pages will land: its FMEM hot-set share and the far remainder. An
  // in-flight migration holds one against its destination from the moment
  // it survives its round-0 copy until it retires (abort, cancel, fence or
  // stop-and-copy completion — after which the destination's real
  // allocations carry the weight). The cluster's placement batches use the
  // same type for VMs assigned but not yet provisioned.
  struct Commitment {
    uint64_t fmem_pages = 0;
    uint64_t far_pages = 0;
  };

  // `hosts` outlives the migrator; `faults` may be null (no abort fault).
  LiveMigrator(const MigrationConfig& config, std::vector<std::unique_ptr<Machine>>& hosts,
               FaultInjector* faults);

  // Starts migrating `src_vm` (active on `src_host`) toward `dst_host`,
  // performing the round-0 full copy at `now`; `commitment` is the claim
  // charged against the destination while the migration is in flight.
  // Returns false when the armed abort fault killed the migration during
  // round 0 (counted as started + aborted; the source VM is untouched and
  // the destination is never charged).
  bool Begin(int src_host, int src_vm, int dst_host, const Commitment& commitment, Nanos now);

  // Runs one pre-copy round for every in-flight migration at barrier time
  // `now`, resolving stop-and-copy / abort / cancellation. Returns the
  // migrations that completed, in start order.
  std::vector<Completion> Advance(Nanos now);

  // Tears down every in-flight migration routed at or from `host` (a
  // fail-stopped endpoint), counting the routes as `fenced` (not aborted —
  // the ledger identity becomes started == completed + aborted + cancelled +
  // fenced).
  // Returns the torn-down routes in start order so the cluster can decide
  // per route: a dead *source* means the VM itself is gone (restart path),
  // a dead *destination* leaves the source VM running (retry path).
  std::vector<Completion> FenceHost(int host);

  // Drains the routes aborted by migratefail since the last call (round-0
  // and mid-copy aborts alike), in abort order — the feed for the
  // cluster's retry queue. Fenced routes are returned by FenceHost, never
  // here.
  std::vector<Completion> TakeAbortedRoutes();

  int inflight() const { return static_cast<int>(inflight_.size()); }
  // Source/destination route of every in-flight migration (dst_vm == -1:
  // the destination index exists only after stop-and-copy).
  std::vector<Completion> InflightRoutes() const;
  // Per-destination-host sums of the in-flight migrations' commitments
  // (indexed by host), computed from the in-flight list on every call. A
  // retired migration leaves that list, so its claim cannot linger.
  std::vector<Commitment> DstCommitments() const;
  bool Migrating(int host, int vm) const;
  const Stats& stats() const { return stats_; }

  void RegisterMetrics(MetricScope scope) const;

 private:
  struct Inflight {
    int src_host = -1;
    int src_vm = -1;
    int dst_host = -1;
    int rounds = 0;
    double copy_ns = 0.0;  // Cumulative pre-copy cost (abort clock).
    bool abort_armed = false;
    Nanos abort_after = 0;
    Commitment commitment;  // Held against dst_host while in flight.
  };

  // Copies the current dirty set (or, when `full`, every EPT-backed page)
  // behind a full TLB flush, clearing D bits; charges the cost to the source
  // VM's migration account and returns {pages, ns}.
  struct RoundResult {
    uint64_t pages = 0;
    double ns = 0.0;
  };
  RoundResult CopyRound(Machine& src, int vm, bool full, Nanos now);

  MigrationConfig config_;
  std::vector<std::unique_ptr<Machine>>& hosts_;
  FaultInjector* faults_;
  std::vector<Inflight> inflight_;
  std::vector<Completion> aborted_routes_;  // Pending TakeAbortedRoutes drain.
  Stats stats_;
};

}  // namespace demeter

#endif  // DEMETER_SRC_CLUSTER_LIVE_MIGRATOR_H_
