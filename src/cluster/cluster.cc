#include "src/cluster/cluster.h"

#include <algorithm>
#include <future>
#include <iterator>
#include <string>
#include <thread>
#include <utility>

#include "src/base/logging.h"
#include "src/base/thread_pool.h"
#include "src/mem/host_memory.h"

namespace demeter {

namespace {

// Restart-queue admission control: kills beyond this many waiting VMs are
// lost outright.
constexpr size_t kRestartQueueLimit = 64;

uint64_t PagesFor(const VmSetup& setup) {
  return (setup.vm.total_memory_bytes + kPageSize - 1) / kPageSize;
}

// The slice of a VM's commitment that wants to live in FMEM — its hot-set
// share under the configured tier ratio. Placement treats this as the part
// of the promise that must fit in the near tier.
uint64_t FmemShareFor(const VmSetup& setup) {
  return static_cast<uint64_t>(static_cast<double>(PagesFor(setup)) * setup.vm.fmem_ratio);
}

// Runs `phase` once per host on `pool` and returns when every host is done.
// All futures are waited on before any is read, so a host that throws never
// unwinds the caller while another host is still stepping; get() then
// rethrows the lowest-numbered failing host's exception. Each job holds its
// own copy of `phase`, so no job refers to this frame.
template <typename Phase>
void ForEachHost(ThreadPool& pool, std::vector<std::unique_ptr<Machine>>& hosts,
                 const Phase& phase) {
  std::vector<std::future<void>> done;
  done.reserve(hosts.size());
  for (std::unique_ptr<Machine>& host : hosts) {
    done.push_back(pool.Submit([phase, machine = host.get()] { phase(*machine); }));
  }
  for (std::future<void>& future : done) {
    future.wait();
  }
  for (std::future<void>& future : done) {
    future.get();
  }
}

}  // namespace

uint64_t HostSeed(uint64_t cluster_seed, int host) {
  return cluster_seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(host);
}

Cluster::Cluster(const MachineConfig& config, const ClusterSetup& setup)
    : setup_(setup),
      placer_(setup.placement, setup.placement_headroom),
      check_invariants_(config.check_invariants) {
  DEMETER_CHECK_GE(setup_.num_hosts, 1) << "a cluster needs at least one host";
  DEMETER_CHECK_GT(setup_.epoch, 0) << "barrier epoch must be positive";
  hosts_.reserve(static_cast<size_t>(setup_.num_hosts));
  for (int h = 0; h < setup_.num_hosts; ++h) {
    MachineConfig host_config = config;
    host_config.seed = HostSeed(config.seed, h);
    if (!setup_.host_faults.empty()) {
      host_config.faults =
          setup_.host_faults[static_cast<size_t>(h) % setup_.host_faults.size()];
    }
    hosts_.push_back(std::make_unique<Machine>(host_config));
  }
  cooldown_until_.assign(hosts_.size(), 0);
  health_.assign(hosts_.size(), HostHealth{});
  // The cluster-scoped injector owns the migratefail and hostfail sites
  // (keyed by host, not VM) and seeds from the cluster seed, which host 0's
  // machine injector shares. The two never share a stream: a lane's key
  // names its site, and machines never draw those two sites.
  if (!config.faults.empty()) {
    faults_ = std::make_unique<FaultInjector>(config.faults, config.seed);
  }
  migrator_ = std::make_unique<LiveMigrator>(setup_.migration, hosts_, faults_.get());

  MetricScope scope(&registry_, "cluster");
  scope.RegisterGaugeFn("hosts", [hosts = static_cast<double>(setup_.num_hosts)] { return hosts; });
  migrator_->RegisterMetrics(scope.Sub("migration"));
  MetricScope placement = scope.Sub("placement");
  placement.RegisterCounter("placements", &placer_.stats().placements);
  placement.RegisterCounter("rejects", &placer_.stats().rejects);
  placement.RegisterCounter("fallbacks", &placement_fallbacks_);
  placement.RegisterCounter("deferred", &deferred_placements_);
  scope.Sub("evacuation").RegisterCounter("no_destination", &evac_no_destination_);
  MetricScope migration = scope.Sub("migration");
  migration.RegisterCounter("retries", &migration_retries_);
  migration.RegisterCounter("retry_exhausted", &migration_retries_exhausted_);
  MetricScope ha = scope.Sub("ha");
  ha.RegisterCounter("host_failures", &hosts_failed_);
  ha.RegisterCounter("vms_killed", &vms_killed_);
  ha.RegisterCounter("vms_restarted", &vms_restarted_);
  ha.RegisterCounter("vms_lost", &vms_lost_);
  ha.RegisterCounter("transactions_lost", &transactions_lost_);
  ha.RegisterCounter("restart_latency_ns_total", &restart_latency_ns_total_);
  ha.RegisterCounterFn("restart_queue_depth",
                       [this] { return static_cast<uint64_t>(restart_queue_.size()); });
  if (faults_ != nullptr) {
    scope.Sub("fault").RegisterCounterFn("live_migrate_fail_injected", [this] {
      return faults_->total_injected(FaultSite::kLiveMigrateFail);
    });
    scope.Sub("fault").RegisterCounterFn("host_fail_injected", [this] {
      return faults_->total_injected(FaultSite::kHostFail);
    });
  }
}

int Cluster::AddVm(const VmSetup& setup) {
  DEMETER_CHECK(!ran_) << "AddVm after Run";
  DEMETER_CHECK(setup.boot_at < kVcpuClockLimitNs)
      << "boot_at " << setup.boot_at << " ns is outside the vCPU clock's domain (2^48 ns)";
  const int i = static_cast<int>(setups_.size());
  setups_.push_back(setup);
  locations_.push_back(ClusterVmLocation{});
  return i;
}

const VmRunResult& Cluster::result(int i) const {
  const ClusterVmLocation& loc = locations_[static_cast<size_t>(i)];
  DEMETER_CHECK_GE(loc.host, 0) << "vm " << i << " was never placed";
  return hosts_[static_cast<size_t>(loc.host)]->result(loc.index);
}

std::vector<HostLoad> Cluster::Loads(const std::vector<Reservation>& reserved,
                                     const std::vector<int>& assigned_vms) const {
  // Live free counts overstate real headroom: a lazily-backed VM maps pages
  // as it touches them, so a freshly admitted tenant looks nearly weightless
  // at the next barrier and grows toward its full promise later. Charge
  // every resident VM its commitment (total memory, split into its FMEM
  // hot-set share and the far-tier remainder) minus what it has already
  // mapped, and charge in-flight migrations' full commitment to their
  // destination — stop-and-copy will materialize it all at once.
  std::vector<Reservation> committed(hosts_.size());
  for (size_t i = 0; i < setups_.size(); ++i) {
    const ClusterVmLocation& loc = locations_[i];
    if (loc.host < 0 || !hosts_[static_cast<size_t>(loc.host)]->VmActive(loc.index)) {
      continue;
    }
    const uint64_t share = FmemShareFor(setups_[i]);
    committed[static_cast<size_t>(loc.host)].fmem_pages += share;
    committed[static_cast<size_t>(loc.host)].far_pages += PagesFor(setups_[i]) - share;
  }
  // In-flight migrations come from the migrator's ledger, charged at Begin
  // and released exactly once when a migration retires — not recomputed
  // from the routes, so an aborted migration's claim cannot linger.
  const std::vector<LiveMigrator::Commitment>& inflight = migrator_->DstCommitments();
  for (size_t h = 0; h < hosts_.size(); ++h) {
    committed[h].fmem_pages += inflight[h].fmem_pages;
    committed[h].far_pages += inflight[h].far_pages;
  }
  std::vector<HostLoad> loads(hosts_.size());
  for (size_t h = 0; h < hosts_.size(); ++h) {
    Machine& machine = *hosts_[h];
    const HostMemory& mem = machine.hypervisor().memory();
    HostLoad& load = loads[h];
    load.fmem_free_pages = mem.FreePages(kFmemTier);
    const uint64_t used_fmem = mem.UsedPages(kFmemTier);
    for (int tier = kSmemTier; tier < mem.num_tiers(); ++tier) {
      load.far_free_pages += mem.FreePages(static_cast<TierIndex>(tier));
      load.far_used_pages += mem.UsedPages(static_cast<TierIndex>(tier));
    }
    for (int tier = 0; tier < mem.num_tiers(); ++tier) {
      load.capacity_pages += mem.CapacityPages(static_cast<TierIndex>(tier));
      load.poisoned_pages += mem.PoisonedPages(static_cast<TierIndex>(tier));
    }
    load.carved_pages = mem.CarvedPages(kFmemTier);
    load.resident_vms = machine.NumActiveVms() + assigned_vms[h];
    load.shrinking = machine.hypervisor().TierUnderShrink(kFmemTier);
    const HostHealth& health = health_[h];
    load.down = health.down;
    load.quarantined = !health.down && barrier_ < health.quarantine_until_barrier;
    load.failures = health.failures;
    load.migration_aborts = health.migration_aborts;
    // Uncommitted growth plus same-batch reservations drain each tier's
    // own share; FMEM overflow spills to far, like the first-touch
    // allocations they model.
    const Reservation& c = committed[h];
    const uint64_t growth_fmem =
        c.fmem_pages > used_fmem ? c.fmem_pages - used_fmem : 0;
    const uint64_t growth_far =
        c.far_pages > load.far_used_pages ? c.far_pages - load.far_used_pages : 0;
    const uint64_t want_fmem = growth_fmem + reserved[h].fmem_pages;
    const uint64_t from_fmem = std::min(want_fmem, load.fmem_free_pages);
    load.fmem_free_pages -= from_fmem;
    const uint64_t want_far = growth_far + reserved[h].far_pages + (want_fmem - from_fmem);
    load.far_free_pages -= std::min(want_far, load.far_free_pages);
  }
  return loads;
}

int Cluster::PlaceVm(const VmSetup& setup, const std::vector<Reservation>& reserved,
                     const std::vector<int>& assigned_vms) {
  const std::vector<HostLoad> loads = Loads(reserved, assigned_vms);
  int h = placer_.PickHost(loads, PagesFor(setup), FmemShareFor(setup));
  if (h < 0) {
    // No eligible host (all shrinking/quarantined/full). The VM must still
    // run somewhere, but never on a down or excluded host: the tiered
    // fallback prefers healthy hosts, then shrinking, then quarantined
    // (roomiest inside each tier), and returns -1 only when every host is
    // fenced — the caller defers the boot to a later barrier.
    h = PlacementController::PickFallbackHost(loads);
    if (h >= 0) {
      ++placement_fallbacks_;
    }
  }
  return h;
}

void Cluster::PlaceDue(Nanos now) {
  const std::vector<Reservation> no_reserved(hosts_.size());
  const std::vector<int> no_assigned(hosts_.size(), 0);
  std::vector<PendingVm> later;
  later.reserve(pending_.size());
  for (PendingVm& p : pending_) {
    if (p.setup.boot_at > now) {
      later.push_back(std::move(p));
      continue;
    }
    // Admission provisions synchronously, so each placement in this batch
    // sees the previous one's allocations — no reservations needed.
    const int h = PlaceVm(p.setup, no_reserved, no_assigned);
    if (h < 0) {
      // Every host is fenced right now; hold the boot for a later barrier.
      later.push_back(std::move(p));
      continue;
    }
    const int idx = hosts_[static_cast<size_t>(h)]->AdmitVm(p.setup, now);
    locations_[static_cast<size_t>(p.spec_index)] = ClusterVmLocation{h, idx};
    ++deferred_placements_;
  }
  pending_ = std::move(later);
}

void Cluster::MaybeEvacuate(Nanos now, int64_t barrier) {
  for (int h = 0; h < num_hosts(); ++h) {
    if (migrator_->inflight() >= setup_.migration.max_inflight) {
      return;
    }
    Machine& src = *hosts_[static_cast<size_t>(h)];
    if (!src.hypervisor().TierUnderShrink(kFmemTier)) {
      continue;
    }
    if (barrier < cooldown_until_[static_cast<size_t>(h)]) {
      continue;
    }
    // Victim: the cheapest VM to move — fewest mapped guest pages. Lowest
    // index breaks ties, so victim choice is deterministic.
    int victim = -1;
    uint64_t fewest = 0;
    for (int i = 0; i < src.num_vms(); ++i) {
      if (!src.VmActive(i) || migrator_->Migrating(h, i)) {
        continue;
      }
      const uint64_t pages = src.vm(i).kernel().mapped_pages();
      if (victim < 0 || pages < fewest) {
        victim = i;
        fewest = pages;
      }
    }
    if (victim < 0) {
      continue;
    }
    // The destination must absorb the victim's full commitment, not just
    // what it has mapped so far — the rest follows after stop-and-copy.
    uint64_t victim_pages = fewest;
    uint64_t victim_fmem = 0;
    for (size_t i = 0; i < setups_.size(); ++i) {
      if (locations_[i].host == h && locations_[i].index == victim) {
        victim_pages = PagesFor(setups_[i]);
        victim_fmem = FmemShareFor(setups_[i]);
        break;
      }
    }
    std::vector<HostLoad> loads =
        Loads(std::vector<Reservation>(hosts_.size()), std::vector<int>(hosts_.size(), 0));
    loads[static_cast<size_t>(h)].excluded = true;  // Shrinking also vetoes.
    const int dst = placer_.PickHost(loads, victim_pages, victim_fmem);
    cooldown_until_[static_cast<size_t>(h)] = barrier + setup_.migration.cooldown_epochs;
    if (dst < 0) {
      ++evac_no_destination_;
      continue;
    }
    migrator_->Begin(h, victim, dst,
                     LiveMigrator::Commitment{victim_fmem, victim_pages - victim_fmem}, now);
  }
}

int Cluster::SpecIndexOf(int host, int index) const {
  for (size_t i = 0; i < locations_.size(); ++i) {
    if (locations_[i].host == host && locations_[i].index == index) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void Cluster::DetectHostFailures(Nanos now, int64_t barrier) {
  for (int h = 0; h < num_hosts(); ++h) {
    HostHealth& health = health_[static_cast<size_t>(h)];
    if (health.down) {
      if (now >= health.down_until) {
        // Resurrection: the host rejoins empty, on probation. Quarantine
        // keeps it out of strict placement until the window closes; the
        // fallback path may still use it as a last resort.
        health.down = false;
        health.quarantine_until_barrier = barrier + setup_.ha.quarantine_epochs;
      }
      continue;
    }
    if (faults_ == nullptr || h >= kMaxFaultHosts || !faults_->ShouldFailHost(h)) {
      continue;
    }
    // Fail-stop: fence first (placement exclusion is via health.down; every
    // in-flight route touching the host is torn down with its commitment
    // released), then kill the residents. Fencing precedes the migrator's
    // Advance so a doomed route is never mistaken for a cancel or charged
    // another pre-copy round against a dead machine.
    health.down = true;
    health.down_until = now + faults_->HostFailDuration(h);
    ++health.failures;
    ++hosts_failed_;
    for (const LiveMigrator::Completion& route : migrator_->FenceHost(h)) {
      if (route.src_host == h) {
        // The migrating VM died with its source host; the kill loop below
        // owns its recovery. Any stale retry entry is dropped when it next
        // comes due (the VM is no longer active at that location).
        continue;
      }
      // Destination died under an in-flight migration: the source VM is
      // still running. Charge the dead destination's health ledger and
      // queue a re-plan toward a fresh destination.
      ++health.migration_aborts;
      const int spec = SpecIndexOf(route.src_host, route.src_vm);
      if (spec >= 0 && setup_.migration.max_retries > 0) {
        RetryEntry* standing = nullptr;
        for (RetryEntry& entry : retry_queue_) {
          if (entry.spec_index == spec) {
            standing = &entry;
            break;
          }
        }
        if (standing == nullptr) {
          retry_queue_.push_back(RetryEntry{spec, 0, barrier + 1, false});
        } else {
          standing->inflight = false;
          standing->next_attempt_barrier = barrier + 1;
        }
      }
    }
    Machine& machine = *hosts_[static_cast<size_t>(h)];
    for (size_t i = 0; i < locations_.size(); ++i) {
      const ClusterVmLocation& loc = locations_[i];
      if (loc.host != h || !machine.VmActive(loc.index)) {
        continue;
      }
      transactions_lost_ += machine.KillVm(loc.index, now);
      ++vms_killed_;
      // The corpse can't migrate: drop any standing re-plan for it.
      std::erase_if(retry_queue_, [&](const RetryEntry& entry) {
        return entry.spec_index == static_cast<int>(i);
      });
      if (!setup_.ha.restart) {
        ++vms_lost_;  // No-recovery ablation: every kill is terminal.
      } else if (restart_queue_.size() >= kRestartQueueLimit) {
        ++vms_lost_;  // Admission control: the queue is full, drop.
      } else {
        restart_queue_.push_back(RestartEntry{static_cast<int>(i), 0, barrier + 1, now});
      }
    }
  }
}

void Cluster::ProcessRestartQueue(Nanos now, int64_t barrier) {
  // FIFO with backoff: entries keep their arrival order; an entry not yet
  // due (or rejected this barrier) stays in line ahead of younger kills.
  std::deque<RestartEntry> keep;
  while (!restart_queue_.empty()) {
    RestartEntry entry = restart_queue_.front();
    restart_queue_.pop_front();
    if (entry.next_attempt_barrier > barrier) {
      keep.push_back(entry);
      continue;
    }
    // Strict placement only — no fallback. Restarting the backlog onto the
    // battered survivors would recreate the overload that admission
    // control exists to prevent.
    VmSetup setup = setups_[static_cast<size_t>(entry.spec_index)];
    setup.boot_at = 0;
    const std::vector<Reservation> no_reserved(hosts_.size());
    const std::vector<int> no_assigned(hosts_.size(), 0);
    const int h = placer_.PickHost(Loads(no_reserved, no_assigned), PagesFor(setup),
                                   FmemShareFor(setup));
    if (h < 0) {
      ++entry.attempts;
      if (entry.attempts >= setup_.ha.restart_max_attempts) {
        ++vms_lost_;
        continue;
      }
      entry.next_attempt_barrier = barrier + setup_.ha.restart_backoff_epochs;
      keep.push_back(entry);
      continue;
    }
    const int idx = hosts_[static_cast<size_t>(h)]->AdmitVm(setup, now, /*restarted=*/true);
    locations_[static_cast<size_t>(entry.spec_index)] = ClusterVmLocation{h, idx};
    ++vms_restarted_;
    restart_latency_ns_total_ += now - entry.killed_at;
  }
  restart_queue_ = std::move(keep);
}

void Cluster::ProcessMigrationRetries(Nanos now, int64_t barrier) {
  // Feed: every route migratefail aborted since the last barrier. The
  // source host's health ledger is charged regardless; the retry queue
  // only when retries are enabled (max_retries defaults to 0). Re-aborted
  // retries re-surface here and merge into their standing entry, so
  // attempts accumulate.
  for (const LiveMigrator::Completion& route : migrator_->TakeAbortedRoutes()) {
    ++health_[static_cast<size_t>(route.src_host)].migration_aborts;
    if (setup_.migration.max_retries <= 0) {
      continue;
    }
    const int spec = SpecIndexOf(route.src_host, route.src_vm);
    if (spec < 0) {
      continue;
    }
    RetryEntry* standing = nullptr;
    for (RetryEntry& entry : retry_queue_) {
      if (entry.spec_index == spec) {
        standing = &entry;
        break;
      }
    }
    if (standing == nullptr) {
      retry_queue_.push_back(
          RetryEntry{spec, 1, barrier + setup_.migration.retry_backoff_epochs, false});
    } else {
      // A re-aborted attempt (round-0 or mid-copy) lands back here and
      // accumulates; resetting would let a flaky route retry forever.
      ++standing->attempts;
      standing->inflight = false;
      standing->next_attempt_barrier = barrier + setup_.migration.retry_backoff_epochs;
    }
  }
  if (retry_queue_.empty()) {
    return;
  }
  std::vector<RetryEntry> keep;
  keep.reserve(retry_queue_.size());
  for (RetryEntry& entry : retry_queue_) {
    if (entry.inflight) {
      keep.push_back(entry);  // An attempt is mid-copy; nothing to do yet.
      continue;
    }
    if (entry.attempts > setup_.migration.max_retries) {
      ++migration_retries_exhausted_;
      continue;
    }
    if (entry.next_attempt_barrier > barrier) {
      keep.push_back(entry);
      continue;
    }
    const ClusterVmLocation& loc = locations_[static_cast<size_t>(entry.spec_index)];
    if (loc.host < 0 || !hosts_[static_cast<size_t>(loc.host)]->VmActive(loc.index) ||
        migrator_->Migrating(loc.host, loc.index)) {
      continue;  // Stale: the VM finished, died, or is already moving again.
    }
    if (migrator_->inflight() >= setup_.migration.max_inflight) {
      keep.push_back(entry);  // Congestion, not failure: re-check next barrier.
      continue;
    }
    // Destination re-selection against the current load picture, source
    // excluded (and any down host implicitly, via Eligible).
    const uint64_t pages = PagesFor(setups_[static_cast<size_t>(entry.spec_index)]);
    const uint64_t fmem = FmemShareFor(setups_[static_cast<size_t>(entry.spec_index)]);
    std::vector<HostLoad> loads =
        Loads(std::vector<Reservation>(hosts_.size()), std::vector<int>(hosts_.size(), 0));
    loads[static_cast<size_t>(loc.host)].excluded = true;
    const int dst = placer_.PickHost(loads, pages, fmem);
    if (dst < 0) {
      ++entry.attempts;
      if (entry.attempts > setup_.migration.max_retries) {
        ++migration_retries_exhausted_;
        continue;
      }
      entry.next_attempt_barrier = barrier + setup_.migration.retry_backoff_epochs;
      keep.push_back(entry);
      continue;
    }
    ++migration_retries_;
    if (migrator_->Begin(loc.host, loc.index, dst,
                         LiveMigrator::Commitment{fmem, pages - fmem}, now)) {
      // In flight again: the entry rides along until the migration
      // completes (purged in Run's completion loop) or re-aborts (merged
      // above at a later barrier).
      entry.inflight = true;
    }
    // Round-0 re-abort: the route is already in the migrator's aborted
    // list and merges into this entry at the next barrier.
    keep.push_back(entry);
  }
  retry_queue_ = std::move(keep);
}

void Cluster::AuditHaInvariants() const {
  std::vector<bool> down(hosts_.size(), false);
  std::vector<int> active(hosts_.size(), 0);
  for (size_t h = 0; h < hosts_.size(); ++h) {
    down[h] = health_[h].down;
    active[h] = hosts_[h]->NumActiveVms();
  }
  std::vector<InvariantChecker::RouteEntry> routes;
  for (const LiveMigrator::Completion& route : migrator_->InflightRoutes()) {
    routes.push_back({route.src_host, route.dst_host});
  }
  std::vector<InvariantChecker::CommitmentEntry> ledger;
  const std::vector<LiveMigrator::Commitment>& committed = migrator_->DstCommitments();
  for (size_t h = 0; h < committed.size(); ++h) {
    ledger.push_back({static_cast<int>(h), committed[h].fmem_pages, committed[h].far_pages});
  }
  InvariantReport report;
  InvariantChecker::CheckHostFencing(down, active, routes, ledger, &report);
  InvariantChecker::CheckRestartConservation(vms_killed_, vms_restarted_, restart_queue_.size(),
                                             vms_lost_, &report);
  DEMETER_CHECK(report.ok()) << "host-failure invariants: " << report.Join();
}

void Cluster::Run() {
  DEMETER_CHECK(!ran_) << "Run called twice";
  ran_ = true;

  if (hosts_.size() == 1) {
    // Degenerate fleet: exactly a bare Machine. Deferred boots flow through
    // the machine's own boot_at path, and no barrier control plane runs
    // (evacuation needs a second host) — byte-identity is structural.
    for (size_t i = 0; i < setups_.size(); ++i) {
      locations_[i] = ClusterVmLocation{0, hosts_[0]->AddVm(setups_[i])};
    }
    hosts_[0]->Run();
    return;
  }

  // Place boot-at-zero VMs up front, in spec order; queue deferred boots.
  std::vector<Reservation> reserved(hosts_.size());
  std::vector<int> assigned(hosts_.size(), 0);
  for (size_t i = 0; i < setups_.size(); ++i) {
    const VmSetup& setup = setups_[i];
    if (setup.boot_at != 0) {
      pending_.push_back(PendingVm{static_cast<int>(i), setup});
      continue;
    }
    const int h = PlaceVm(setup, reserved, assigned);
    DEMETER_CHECK_GE(h, 0) << "no live host for boot-time placement of vm " << i;
    locations_[i] = ClusterVmLocation{h, hosts_[static_cast<size_t>(h)]->AddVm(setup)};
    const uint64_t share = FmemShareFor(setup);
    reserved[static_cast<size_t>(h)].fmem_pages += share;
    reserved[static_cast<size_t>(h)].far_pages += PagesFor(setup) - share;
    ++assigned[static_cast<size_t>(h)];
  }

  // Hosts step concurrently (the header's concurrency contract). The pool
  // lives for the whole run, so a barrier costs a task hand-off per host,
  // never a thread start-up.
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  ThreadPool pool(static_cast<int>(std::min(hosts_.size(), cores)));
  ForEachHost(pool, hosts_, [](Machine& host) { host.StartRun(); });

  const Nanos epoch = setup_.epoch;
  Nanos t = 0;
  int64_t barrier = 0;
  while (true) {
    bool any_active = false;
    for (const auto& host : hosts_) {
      any_active = any_active || host->NumActiveVms() > 0;
    }
    if (!any_active && migrator_->inflight() == 0 && restart_queue_.empty()) {
      if (pending_.empty()) {
        break;  // Fleet drained.
      }
      // Only deferred boots remain: jump the grid to the first due barrier
      // instead of spinning empty epochs.
      Nanos due = pending_.front().setup.boot_at;
      for (const PendingVm& p : pending_) {
        due = std::min(due, p.setup.boot_at);
      }
      const Nanos due_barrier = ((due + epoch - 1) / epoch) * epoch;
      if (due_barrier > t + epoch) {
        t = due_barrier - epoch;
      }
    }
    t += epoch;
    ++barrier;
    barrier_ = barrier;
    ForEachHost(pool, hosts_, [t](Machine& host) { host.StepUntil(t); });
    // Barrier control plane, fixed order: the failure detector runs first
    // (a fenced route must not be misread as a completion or cancel by
    // Advance), then finish/advance surviving migrations (freed capacity
    // helps placement), then boot due VMs, then recovery (restarts before
    // retries — a restarted VM frees nothing, but the ordering is pinned
    // for determinism), then new evacuations against the post-placement
    // load picture.
    DetectHostFailures(t, barrier);
    const std::vector<LiveMigrator::Completion> completions = migrator_->Advance(t);
    for (const LiveMigrator::Completion& c : completions) {
      for (size_t i = 0; i < locations_.size(); ++i) {
        ClusterVmLocation& loc = locations_[i];
        if (loc.host == c.src_host && loc.index == c.src_vm) {
          loc = ClusterVmLocation{c.dst_host, c.dst_vm};
          // The VM landed: retire any standing retry entry for it.
          std::erase_if(retry_queue_, [&](const RetryEntry& entry) {
            return entry.spec_index == static_cast<int>(i);
          });
          break;
        }
      }
    }
    PlaceDue(t);
    ProcessRestartQueue(t, barrier);
    ProcessMigrationRetries(t, barrier);
    MaybeEvacuate(t, barrier);
    if (check_invariants_) {
      const InvariantReport report = migrator_->AuditCommitments();
      DEMETER_CHECK(report.ok()) << "commitment conservation: " << report.Join();
      AuditHaInvariants();
    }
  }

  ForEachHost(pool, hosts_, [](Machine& host) { host.FinishRun(); });
}

MetricSnapshot Cluster::SnapshotMetrics() const {
  if (hosts_.size() == 1) {
    return hosts_[0]->SnapshotMetrics();
  }
  std::vector<MetricSnapshot> parts;
  parts.reserve(hosts_.size() + 1);
  for (size_t h = 0; h < hosts_.size(); ++h) {
    parts.push_back(
        RebaseMetricSnapshot(hosts_[h]->SnapshotMetrics(), "host" + std::to_string(h)));
  }
  parts.push_back(registry_.Snapshot());
  return MergeMetricSnapshots(std::move(parts));
}

std::vector<TraceEvent> Cluster::TakeTrace() {
  int stride = 0;
  for (const auto& host : hosts_) {
    stride = std::max(stride, host->num_vms());
  }
  std::vector<TraceEvent> events;
  for (size_t h = 0; h < hosts_.size(); ++h) {
    std::vector<TraceEvent> part = hosts_[h]->TakeTrace();
    const int base = static_cast<int>(h) * stride;
    for (TraceEvent& event : part) {
      event.pid += base;
    }
    events.insert(events.end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
  }
  return events;
}

}  // namespace demeter
