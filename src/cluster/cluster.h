// Multi-host fleet simulation: composes N Machines into one deterministic
// cluster with VM placement and pre-copy live migration.
//
// Hosts advance independently between epoch-synchronized barriers: each
// barrier StepUntil()s every host to the same virtual time, then runs the
// fleet-level control plane — migration rounds, due deferred boots, and
// shrink-window evacuations — in a fixed order. Everything the control
// plane reads is a deterministic function of host state at the barrier, and
// each host's seed derives from the cluster seed by host index (HostSeed),
// so the whole fleet is byte-reproducible: --jobs=1 and --jobs=8 runs of a
// cluster spec are identical.
//
// Concurrency contract: Run() keeps one pool of min(hosts, cores) workers
// for the whole run and hands it each host's StartRun, StepUntil(barrier)
// and FinishRun, one job per host. Between barriers a host touches only its
// own Machine (RNG, event queue, tiers, tracer, registry, per-host fault
// injector). Everything that crosses hosts (the cluster-scoped injector,
// the migrator, placement, the restart and retry queues, the audits) runs
// on the calling thread at the barrier. Each phase waits for every host
// before reading any result and rethrows host exceptions in host order, so
// the output equals stepping the hosts one after another.
//
// The single-host cluster is the degenerate case and is *exactly* a bare
// Machine: host 0 gets the cluster seed unchanged, every VM (deferred or
// not) is handed straight to Machine::AddVm, no barrier control plane runs
// (evacuation needs a second host), and SnapshotMetrics() returns host 0's
// registry verbatim. A regression test pins byte-identity.
//
// Multi-host snapshots re-namespace each host under "host<h>/..."
// ("host<h>/vm<i>/..." for the per-VM trees) and append a "cluster/..."
// roll-up of placement and migration counters.

#ifndef DEMETER_SRC_CLUSTER_CLUSTER_H_
#define DEMETER_SRC_CLUSTER_CLUSTER_H_

#include <deque>
#include <memory>
#include <vector>

#include "src/cluster/live_migrator.h"
#include "src/cluster/placement.h"
#include "src/harness/machine.h"

namespace demeter {

// Host-failure recovery tuning. A VM killed by a `hostfail` fail-stop
// enters a bounded FIFO restart queue; each barrier the queue head(s) due
// for an attempt ask the placement controller for a surviving host under
// the *strict* eligibility rules (no fallback — admission control under
// degraded capacity), backing off on rejection and giving the VM up as
// lost after `restart_max_attempts`.
struct HaConfig {
  bool restart = true;            // Re-place killed VMs on surviving hosts.
  int restart_backoff_epochs = 2;  // Barriers between attempts per VM.
  int restart_max_attempts = 8;   // Rejections before the VM is lost.
  int quarantine_epochs = 8;      // Probation barriers after resurrection.
};

// Fleet topology + control-plane tuning. The default (num_hosts == 0) means
// "no cluster": the runner takes the classic single-Machine path.
struct ClusterSetup {
  int num_hosts = 0;  // 0 = bare Machine path; >= 1 builds a Cluster.
  Nanos epoch = 10 * kMillisecond;  // Barrier pitch.
  PlacementPolicy placement = PlacementPolicy::kFirstFit;
  // Fraction of each host's capacity the placement controller keeps
  // uncommitted — the slack that absorbs shrink carves and lazy-backing
  // growth. A host packed to the last frame is one fault from OOM.
  double placement_headroom = 0.1;
  MigrationConfig migration;
  HaConfig ha;
  // Per-host fault plans (host h uses host_faults[h % size]); empty = every
  // host runs the machine config's shared plan. This is how a sweep arms
  // staggered tiershrink windows on specific hosts.
  std::vector<FaultPlan> host_faults;
};

// Host h's machine seed in a cluster seeded with `cluster_seed`: the seed
// plus h times SplitMix64's increment. Host 0 runs the cluster seed itself,
// so a one-host cluster is exactly a bare Machine.
uint64_t HostSeed(uint64_t cluster_seed, int host);

// Where a spec VM currently lives: host index + VM index on that host.
// Updated as migrations complete; final values locate the VM's results.
struct ClusterVmLocation {
  int host = -1;
  int index = -1;
};

class Cluster {
 public:
  // `config` is the per-host machine template; config.seed is the cluster
  // seed (host h runs at HostSeed(config.seed, h)).
  Cluster(const MachineConfig& config, const ClusterSetup& setup);

  // Registers a VM with the fleet; returns its cluster-wide index.
  // Placement happens at Run() (boot_at == 0) or at the first barrier past
  // its boot_at. Call before Run().
  int AddVm(const VmSetup& setup);

  // Places and runs the whole fleet to completion.
  void Run();

  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  Machine& host(int h) { return *hosts_[static_cast<size_t>(h)]; }
  int num_vms() const { return static_cast<int>(setups_.size()); }

  // VM i's current (post-Run: final) location and its run result.
  const ClusterVmLocation& location(int i) const { return locations_[static_cast<size_t>(i)]; }
  const VmRunResult& result(int i) const;

  // Single host: host 0's registry verbatim. Multi-host: every host
  // re-namespaced under "host<h>/" plus the "cluster/" roll-up.
  MetricSnapshot SnapshotMetrics() const;

  // Trace events from every host, concatenated in host order. Host h's VM i
  // carries pid h * S + i, where S is the largest num_vms() over all hosts
  // (every VM slot a host ever held, migrated-out and killed ones included),
  // so no two hosts share a pid. A single host keeps its VM ids as pids.
  std::vector<TraceEvent> TakeTrace();

  const LiveMigrator& migrator() const { return *migrator_; }
  const LiveMigrator::Stats& migration_stats() const { return migrator_->stats(); }
  const PlacementController::Stats& placement_stats() const { return placer_.stats(); }
  uint64_t evacuations_without_destination() const { return evac_no_destination_; }

  // ---- host-failure recovery ledger ---------------------------------------
  // Conservation: vms_killed == vms_restarted + restart_queue_depth +
  // vms_lost at every barrier (invariant 10, audited under --check).
  uint64_t hosts_failed() const { return hosts_failed_; }
  uint64_t vms_killed() const { return vms_killed_; }
  uint64_t vms_restarted() const { return vms_restarted_; }
  uint64_t vms_lost() const { return vms_lost_; }
  uint64_t restart_queue_depth() const { return restart_queue_.size(); }
  uint64_t transactions_lost() const { return transactions_lost_; }
  uint64_t restart_latency_ns_total() const { return restart_latency_ns_total_; }
  uint64_t migration_retries() const { return migration_retries_; }
  uint64_t migration_retries_exhausted() const { return migration_retries_exhausted_; }
  bool host_down(int h) const { return health_[static_cast<size_t>(h)].down; }

 private:
  struct PendingVm {
    int spec_index = -1;
    VmSetup setup;
  };

  // Failure detector's per-host ledger. `down`/`quarantine_until_barrier`
  // gate placement; `failures`/`migration_aborts` feed Damage via Loads().
  struct HostHealth {
    bool down = false;
    Nanos down_until = 0;                  // Virtual time the host resurrects.
    int64_t quarantine_until_barrier = 0;  // Probation while barrier < this.
    uint64_t failures = 0;
    uint64_t migration_aborts = 0;
  };

  // One killed VM awaiting re-placement (FIFO).
  struct RestartEntry {
    int spec_index = -1;
    int attempts = 0;                  // Strict-placement rejections so far.
    int64_t next_attempt_barrier = 0;  // Backoff gate.
    Nanos killed_at = 0;               // For restart latency accounting.
  };

  // One aborted migration route awaiting re-plan, keyed by the VM (spec
  // index) so a route survives the source host changing under it. The
  // entry lives until the VM's migration completes, the VM dies or
  // finishes, or the attempt budget runs out — a re-launched attempt keeps
  // the entry (inflight=true) so a re-abort accumulates attempts instead
  // of resetting them.
  struct RetryEntry {
    int spec_index = -1;
    int attempts = 0;                  // Aborts + no-destination rejections.
    int64_t next_attempt_barrier = 0;  // Backoff gate.
    bool inflight = false;             // A retry attempt is mid-copy now.
  };

  // Live load summary for every host; `reserved`/`assigned` fold in VMs
  // placed earlier in the same pre-run batch (not yet provisioned).
  std::vector<HostLoad> Loads(const std::vector<LiveMigrator::Commitment>& reserved,
                              const std::vector<int>& assigned_vms) const;
  // Places a VM with `setup`'s footprint on the best host; falls back to
  // the roomiest *live* host when no host is eligible (a VM must run
  // somewhere, but never on a down/excluded host). Returns -1 only when
  // every host is down or excluded — the caller defers the boot.
  int PlaceVm(const VmSetup& setup, const std::vector<LiveMigrator::Commitment>& reserved,
              const std::vector<int>& assigned_vms);
  void PlaceDue(Nanos now);
  void MaybeEvacuate(Nanos now, int64_t barrier);
  // Maps a host-resident VM back to its spec index (-1 when unknown).
  int SpecIndexOf(int host, int index) const;
  // Barrier-time failure detector: draws hostfail per up host, fences the
  // victims (migrator routes torn down, resident VMs killed, restart /
  // retry queues fed) and resurrects hosts whose window closed.
  void DetectHostFailures(Nanos now, int64_t barrier);
  // Restart-queue pump: strict placement for due entries, backoff on
  // rejection, loss after restart_max_attempts.
  void ProcessRestartQueue(Nanos now, int64_t barrier);
  // Drains the migrator's aborted routes into the retry queue (when
  // migration.max_retries > 0) and re-plans due entries toward a fresh
  // destination.
  void ProcessMigrationRetries(Nanos now, int64_t barrier);
  // The retry queue's standing entry for spec VM `spec`, appended with no
  // attempts when there is none.
  RetryEntry& RetryEntryFor(int spec);
  // Invariant families 9 + 10 (down-host fencing, restart conservation).
  void AuditHaInvariants() const;

  ClusterSetup setup_;
  MetricRegistry registry_;  // "cluster/..." roll-up metrics.
  std::vector<std::unique_ptr<Machine>> hosts_;
  std::unique_ptr<FaultInjector> faults_;  // Cluster-scoped (migratefail).
  std::unique_ptr<LiveMigrator> migrator_;
  PlacementController placer_;
  std::vector<VmSetup> setups_;
  std::vector<ClusterVmLocation> locations_;
  std::vector<PendingVm> pending_;          // Deferred boots awaiting placement.
  std::vector<int64_t> cooldown_until_;     // Per host: next barrier allowed to evacuate.
  std::vector<HostHealth> health_;          // Per host failure-detector state.
  std::deque<RestartEntry> restart_queue_;  // FIFO of killed VMs awaiting re-placement.
  std::vector<RetryEntry> retry_queue_;     // Aborted routes awaiting re-plan.
  int64_t barrier_ = 0;  // Current barrier index (Loads reads quarantine from it).
  uint64_t placement_fallbacks_ = 0;
  uint64_t evac_no_destination_ = 0;
  uint64_t deferred_placements_ = 0;
  uint64_t hosts_failed_ = 0;
  uint64_t vms_killed_ = 0;
  uint64_t vms_restarted_ = 0;
  uint64_t vms_lost_ = 0;
  uint64_t transactions_lost_ = 0;
  uint64_t restart_latency_ns_total_ = 0;
  uint64_t migration_retries_ = 0;
  uint64_t migration_retries_exhausted_ = 0;
  bool check_invariants_ = false;  // Mirrors config.check_invariants.
  bool ran_ = false;
};

}  // namespace demeter

#endif  // DEMETER_SRC_CLUSTER_CLUSTER_H_
