#include "src/cluster/live_migrator.h"

#include <utility>

#include "src/base/logging.h"
#include "src/mem/host_memory.h"
#include "src/mmu/page_table.h"

namespace demeter {
namespace {

// Interconnect cost per copied page.
constexpr double kWireNsPerPage = 600.0;

}  // namespace

LiveMigrator::LiveMigrator(const MigrationConfig& config,
                           std::vector<std::unique_ptr<Machine>>& hosts, FaultInjector* faults)
    : config_(config), hosts_(hosts), faults_(faults) {
  dst_committed_.resize(hosts_.size());
}

std::vector<LiveMigrator::Completion> LiveMigrator::InflightRoutes() const {
  std::vector<Completion> routes;
  routes.reserve(inflight_.size());
  for (const Inflight& m : inflight_) {
    routes.push_back(Completion{m.src_host, m.src_vm, m.dst_host, -1});
  }
  return routes;
}

bool LiveMigrator::Migrating(int host, int vm) const {
  for (const Inflight& m : inflight_) {
    if (m.src_host == host && m.src_vm == vm) {
      return true;
    }
  }
  return false;
}

LiveMigrator::RoundResult LiveMigrator::CopyRound(Machine& src, int vm_idx, bool full, Nanos now) {
  Vm& vm = src.vm(vm_idx);
  HostMemory& mem = src.hypervisor().memory();
  std::vector<PageNum> dirty;
  RoundResult round;
  vm.ept().ForEachPresent(0, PageTable::kMaxPage,
                          [&](PageNum gpa, uint64_t frame, bool /*accessed*/, bool is_dirty) {
                            if (is_dirty) {
                              dirty.push_back(gpa);
                            }
                            if (full || is_dirty) {
                              ++round.pages;
                              round.ns += mem.tier(mem.TierOf(static_cast<FrameId>(frame)))
                                              .AccessCost(now, kPageSize, /*is_write=*/false) +
                                          kWireNsPerPage;
                            }
                          });
  for (const PageNum gpa : dirty) {
    vm.ept().TestAndClearDirty(gpa);
  }
  // (Re)arming dirty logging clears D bits the guest may hold in its TLBs —
  // a full shootdown, exactly like a hardware write-protect pass.
  vm.FullFlushAll();
  round.ns += vm.FullFlushCost();
  vm.mgmt_account().Charge(TmmStage::kMigration, round.ns);
  return round;
}

void LiveMigrator::ReleaseCommitment(const Inflight& m) {
  Commitment& held = dst_committed_[static_cast<size_t>(m.dst_host)];
  DEMETER_CHECK_GE(held.fmem_pages, m.commitment.fmem_pages)
      << "commitment double-release (fmem) toward host " << m.dst_host;
  DEMETER_CHECK_GE(held.far_pages, m.commitment.far_pages)
      << "commitment double-release (far) toward host " << m.dst_host;
  held.fmem_pages -= m.commitment.fmem_pages;
  held.far_pages -= m.commitment.far_pages;
}

InvariantReport LiveMigrator::AuditCommitments() const {
  std::vector<InvariantChecker::CommitmentEntry> inflight;
  inflight.reserve(inflight_.size());
  for (const Inflight& m : inflight_) {
    inflight.push_back({m.dst_host, m.commitment.fmem_pages, m.commitment.far_pages});
  }
  std::vector<InvariantChecker::CommitmentEntry> ledger;
  ledger.reserve(dst_committed_.size());
  for (size_t h = 0; h < dst_committed_.size(); ++h) {
    ledger.push_back(
        {static_cast<int>(h), dst_committed_[h].fmem_pages, dst_committed_[h].far_pages});
  }
  InvariantReport report;
  InvariantChecker::CheckCommitmentConservation(inflight, ledger, &report);
  return report;
}

bool LiveMigrator::Begin(int src_host, int src_vm, int dst_host, const Commitment& commitment,
                         Nanos now) {
  DEMETER_CHECK(src_host != dst_host) << "migration must change hosts";
  Machine& src = *hosts_[static_cast<size_t>(src_host)];
  DEMETER_CHECK(src.VmActive(src_vm));
  DEMETER_CHECK(!Migrating(src_host, src_vm));
  Inflight m;
  m.src_host = src_host;
  m.src_vm = src_vm;
  m.dst_host = dst_host;
  m.commitment = commitment;
  // The abort fault is drawn once, at start, from the source host's private
  // stream — whether THIS migration fails is decided up front, the window
  // only decides when the failure surfaces.
  if (faults_ != nullptr && src_host < kMaxFaultHosts && faults_->ShouldFailMigration(src_host)) {
    m.abort_armed = true;
    m.abort_after = faults_->MigrationAbortAfter(src_host);
  }
  ++stats_.started;
  const RoundResult round = CopyRound(src, src_vm, /*full=*/true, now);
  ++stats_.precopy_rounds;
  stats_.pages_copied += round.pages;
  m.rounds = 1;
  m.copy_ns = round.ns;
  if (m.abort_armed && m.copy_ns >= static_cast<double>(m.abort_after)) {
    // Aborted during the initial full copy. Nothing on the source was
    // disturbed beyond cleared D bits, so there is nothing to roll back.
    ++stats_.aborted;
    aborted_routes_.push_back(Completion{m.src_host, m.src_vm, m.dst_host, -1});
    return false;
  }
  // The destination is charged only once the migration is actually in
  // flight — a round-0 abort never touched the ledger, so there is nothing
  // to release on that path.
  Commitment& held = dst_committed_[static_cast<size_t>(dst_host)];
  held.fmem_pages += m.commitment.fmem_pages;
  held.far_pages += m.commitment.far_pages;
  inflight_.push_back(m);
  return true;
}

std::vector<LiveMigrator::Completion> LiveMigrator::Advance(Nanos now) {
  std::vector<Completion> done;
  std::vector<Inflight> keep;
  keep.reserve(inflight_.size());
  for (Inflight& m : inflight_) {
    Machine& src = *hosts_[static_cast<size_t>(m.src_host)];
    if (!src.VmActive(m.src_vm)) {
      // The VM reached its target (or departed) before converging; the
      // migration evaporates — its resources were torn down by FinishVm.
      ++stats_.cancelled;
      ReleaseCommitment(m);
      continue;
    }
    const RoundResult round = CopyRound(src, m.src_vm, /*full=*/false, now);
    ++stats_.precopy_rounds;
    stats_.pages_copied += round.pages;
    ++m.rounds;
    m.copy_ns += round.ns;
    if (m.abort_armed && m.copy_ns >= static_cast<double>(m.abort_after)) {
      // Mid-copy failure: the source VM keeps running untouched (leak-free
      // by construction — extraction never started). The destination charge
      // is released here and only here — historically placement recomputed
      // commitments from the in-flight routes, which let an abort's charge
      // linger for the rest of the barrier epoch.
      ++stats_.aborted;
      ReleaseCommitment(m);
      aborted_routes_.push_back(Completion{m.src_host, m.src_vm, m.dst_host, -1});
      continue;
    }
    if (round.pages > config_.stop_copy_pages && m.rounds < config_.max_precopy_rounds) {
      keep.push_back(m);  // Still converging.
      continue;
    }
    // Stop-and-copy: the residual this round moved is the transfer the VM
    // pauses for; the destination rebuild cost is added by AdoptVm.
    Machine& dst = *hosts_[static_cast<size_t>(m.dst_host)];
    MigratedVm moved = src.ExtractVm(m.src_vm, now);
    const int dst_vm = dst.AdoptVm(std::move(moved), now, round.ns);
    ++stats_.completed;
    stats_.downtime_ns_total += static_cast<uint64_t>(round.ns);
    // The adopted VM's real allocations now carry the weight; the ledger
    // claim is spent.
    ReleaseCommitment(m);
    done.push_back(Completion{m.src_host, m.src_vm, m.dst_host, dst_vm});
  }
  inflight_ = std::move(keep);
  return done;
}

std::vector<LiveMigrator::Completion> LiveMigrator::FenceHost(int host) {
  std::vector<Completion> torn;
  std::vector<Inflight> keep;
  keep.reserve(inflight_.size());
  for (Inflight& m : inflight_) {
    if (m.src_host != host && m.dst_host != host) {
      keep.push_back(m);
      continue;
    }
    ++stats_.fenced;
    ReleaseCommitment(m);
    torn.push_back(Completion{m.src_host, m.src_vm, m.dst_host, -1});
  }
  inflight_ = std::move(keep);
  return torn;
}

std::vector<LiveMigrator::Completion> LiveMigrator::TakeAbortedRoutes() {
  std::vector<Completion> drained = std::move(aborted_routes_);
  aborted_routes_.clear();
  return drained;
}

void LiveMigrator::RegisterMetrics(MetricScope scope) const {
  scope.RegisterCounter("started", &stats_.started);
  scope.RegisterCounter("completed", &stats_.completed);
  scope.RegisterCounter("aborted", &stats_.aborted);
  scope.RegisterCounter("cancelled", &stats_.cancelled);
  scope.RegisterCounter("fenced", &stats_.fenced);
  scope.RegisterCounter("precopy_rounds", &stats_.precopy_rounds);
  scope.RegisterCounter("pages_copied", &stats_.pages_copied);
  scope.RegisterCounter("downtime_ns_total", &stats_.downtime_ns_total);
}

}  // namespace demeter
