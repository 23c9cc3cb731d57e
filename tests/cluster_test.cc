// src/cluster: placement scoring, telemetry namespacing, the single-host
// byte-identity regression, trace pid encoding, per-host stream
// independence, the three live-migration resolution paths (complete /
// abort / cancel) with page-conservation audits on both ends, and
// run-to-run identity while hosts step concurrently. Run under
// -fsanitize=thread in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/cluster/cluster.h"
#include "src/cluster/placement.h"
#include "src/fault/fault.h"
#include "src/fault/invariant_checker.h"
#include "src/harness/machine.h"
#include "src/runner/experiment.h"
#include "src/telemetry/metrics.h"

namespace demeter {
namespace {

// ------------------------------------------------------ PlacementController

HostLoad Roomy(uint64_t fmem, uint64_t far = 0) {
  HostLoad load;
  load.fmem_free_pages = fmem;
  load.far_free_pages = far;
  return load;
}

TEST(PlacementTest, PolicyNamesRoundTrip) {
  for (PlacementPolicy policy :
       {PlacementPolicy::kFirstFit, PlacementPolicy::kBestFit, PlacementPolicy::kSpread}) {
    EXPECT_EQ(PlacementPolicyFromName(PlacementPolicyName(policy)), policy);
  }
}

TEST(PlacementTest, FirstFitPacksLeft) {
  PlacementController placer(PlacementPolicy::kFirstFit);
  std::vector<HostLoad> loads = {Roomy(100), Roomy(5000), Roomy(5000)};
  EXPECT_EQ(placer.PickHost(loads, 50), 0);   // Host 0 has room: packed left.
  EXPECT_EQ(placer.PickHost(loads, 500), 1);  // Host 0 too small: next fit.
  EXPECT_EQ(placer.stats().placements, 2u);
}

TEST(PlacementTest, BestFitPicksTightestSufficientHeadroom) {
  PlacementController placer(PlacementPolicy::kBestFit);
  std::vector<HostLoad> loads = {Roomy(5000), Roomy(300), Roomy(800)};
  EXPECT_EQ(placer.PickHost(loads, 200), 1);
}

TEST(PlacementTest, SpreadBalancesResidentVms) {
  PlacementController placer(PlacementPolicy::kSpread);
  std::vector<HostLoad> loads = {Roomy(5000), Roomy(400), Roomy(400)};
  loads[0].resident_vms = 3;
  loads[1].resident_vms = 1;
  loads[2].resident_vms = 1;
  // Fewest VMs wins; the resident-count tie between hosts 1 and 2 breaks on
  // score, which is equal, so the lowest index wins.
  EXPECT_EQ(placer.PickHost(loads, 100), 1);
  loads[2].fmem_free_pages = 600;
  EXPECT_EQ(placer.PickHost(loads, 100), 2);  // Same VMs, more headroom.
}

TEST(PlacementTest, ShrinkingAndExcludedHostsAreIneligible) {
  PlacementController placer(PlacementPolicy::kFirstFit);
  std::vector<HostLoad> loads = {Roomy(5000), Roomy(5000), Roomy(5000)};
  loads[0].shrinking = true;  // Evacuation source: never a target.
  loads[1].excluded = true;
  EXPECT_EQ(placer.PickHost(loads, 100), 2);
  loads[2].shrinking = true;
  EXPECT_EQ(placer.PickHost(loads, 100), -1);
  EXPECT_EQ(placer.stats().rejects, 1u);
}

TEST(PlacementTest, FmemShareMustFitInNearTier) {
  // Host 0 has acres of far-tier room but its FMEM is committed; byte count
  // alone would pack it forever while every hot set thrashes. The
  // newcomer's hot-set share must fit in uncommitted FMEM.
  PlacementController placer(PlacementPolicy::kFirstFit);
  std::vector<HostLoad> loads = {Roomy(300, 100000), Roomy(2000, 100000)};
  EXPECT_EQ(placer.PickHost(loads, 2048, /*fmem_pages_needed=*/400), 1);
  // With no FMEM requirement the same request packs left again.
  EXPECT_EQ(placer.PickHost(loads, 2048), 0);
}

TEST(PlacementTest, HeadroomReserveRejectsNearFullHosts) {
  // Both hosts can hold the pages, but host 0's capacity is so committed
  // that placing there would eat into the 10% reserve that absorbs shrink
  // carves and lazy-backing growth.
  PlacementController placer(PlacementPolicy::kFirstFit, /*headroom=*/0.1);
  std::vector<HostLoad> loads = {Roomy(500), Roomy(500)};
  loads[0].capacity_pages = 10000;  // Reserve: 1000 > 500 free.
  loads[1].capacity_pages = 1000;   // Reserve: 100, leaves 400 usable.
  EXPECT_EQ(placer.PickHost(loads, 100), 1);
}

TEST(PlacementTest, DamageHistoryLosesTiebreaks) {
  // Equal free memory, but one host has lost frames to poison/shrink or has
  // crashed: best-fit and spread must both prefer the undamaged host, in
  // either host order, even though both are eligible.
  HostLoad battered = Roomy(1000);
  battered.poisoned_pages = 200;
  battered.carved_pages = 100;
  EXPECT_LT(PlacementController::Score(battered), PlacementController::Score(Roomy(1000)));
  HostLoad crashed = Roomy(1000);
  crashed.failures = 1;
  for (const HostLoad& damaged : {battered, crashed}) {
    for (PlacementPolicy policy : {PlacementPolicy::kBestFit, PlacementPolicy::kSpread}) {
      PlacementController placer(policy);
      EXPECT_EQ(placer.PickHost({damaged, Roomy(1000)}, 100), 1) << PlacementPolicyName(policy);
      EXPECT_EQ(placer.PickHost({Roomy(1000), damaged}, 100), 0) << PlacementPolicyName(policy);
    }
  }
  // A real headroom gap still decides best-fit: a damaged host tighter by
  // far more than its damage (700 pages against 30) wins either way round.
  HostLoad tight = battered;
  tight.fmem_free_pages = 300;
  PlacementController best_fit(PlacementPolicy::kBestFit);
  EXPECT_EQ(best_fit.PickHost({tight, Roomy(1000)}, 100), 0);
  EXPECT_EQ(best_fit.PickHost({Roomy(1000), tight}, 100), 1);
}

// -------------------------------------------------- Telemetry namespacing

TEST(TelemetryRebaseTest, RebaseScopesHostAndVmTrees) {
  std::vector<MetricSample> samples(3);
  samples[0].name = "host/mem/free";
  samples[1].name = "vm0/lifecycle/migrated_in";
  samples[2].name = "vm0/transactions";
  const MetricSnapshot rebased =
      RebaseMetricSnapshot(MetricSnapshot(std::move(samples)), "host3");
  ASSERT_EQ(rebased.size(), 3u);
  // "host/" collapses into the scope; per-VM trees nest under it.
  EXPECT_EQ(rebased.samples()[0].name, "host3/mem/free");
  EXPECT_EQ(rebased.samples()[1].name, "host3/vm0/lifecycle/migrated_in");
  EXPECT_EQ(rebased.samples()[2].name, "host3/vm0/transactions");
}

TEST(TelemetryRebaseTest, MergeSortsAcrossParts) {
  std::vector<MetricSample> a(1), b(1);
  a[0].name = "host1/x";
  b[0].name = "host0/x";
  const MetricSnapshot merged = MergeMetricSnapshots({MetricSnapshot(std::move(a)),
                                                      MetricSnapshot(std::move(b))});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.samples()[0].name, "host0/x");
  EXPECT_EQ(merged.samples()[1].name, "host1/x");
}

// ---------------------------------------------------------------- Fixtures

MachineConfig FleetHost(int vms = 2) {
  MachineConfig config;
  const uint64_t per_vm = 32 * kMiB;
  config.tiers = {TierSpec::LocalDram(10 * kMiB * static_cast<uint64_t>(vms)),
                  TierSpec::Pmem(3 * per_vm * static_cast<uint64_t>(vms))};
  config.seed = 42;
  config.check_invariants = true;  // Every test audits page conservation.
  return config;
}

VmSetup FleetVm(uint64_t transactions = 150000) {
  VmSetup setup;
  setup.vm.total_memory_bytes = 32 * kMiB;
  setup.vm.fmem_ratio = 0.2;
  setup.vm.num_vcpus = 2;
  setup.workload = "gups";
  setup.footprint_bytes = 24 * kMiB;
  setup.target_transactions = transactions;
  setup.policy = PolicyKind::kDemeter;
  setup.provision = ProvisionMode::kDemeterBalloon;
  setup.policy_period = 15 * kMillisecond;
  setup.demeter.range.epoch_length = 2 * kMillisecond;
  setup.demeter.range.split_threshold = 4.0;
  setup.demeter.sample_period = 97;
  return setup;
}

FaultPlan MustParse(const std::string& spec) {
  std::string error;
  const auto plan = FaultPlan::Parse(spec, &error);
  EXPECT_TRUE(plan.has_value()) << error;
  return plan.value_or(FaultPlan{});
}

// A shrink plan whose first carve window ([20ms, 26ms)) straddles the 20ms
// barrier, so evacuation triggers early in every test run.
constexpr char kShrinkSpec[] = "tiershrink=0.3/6ms/20ms@0";

TEST(ClusterDeathTest, AddVmRejectsBootAtOutsideTheClockDomain) {
  // The fleet refuses a boot past the vCPU clock's domain when the VM is
  // registered, not at the barrier that would place it.
  ClusterSetup setup;
  setup.num_hosts = 2;
  Cluster cluster(FleetHost(), setup);
  VmSetup vm = FleetVm();
  vm.boot_at = kVcpuClockLimitNs;
  EXPECT_DEATH(cluster.AddVm(vm), "boot_at 281474976710656 ns is outside");
}

// ------------------------------------------- Single-host byte-identity

TEST(ClusterTest, SingleHostIsByteIdenticalToBareMachine) {
  // The degenerate cluster must not perturb the simulation at all: host 0
  // runs the cluster seed unchanged, deferred boots go straight to
  // Machine::AddVm, and the snapshot is the machine's verbatim.
  const MachineConfig config = FleetHost(2);
  VmSetup deferred = FleetVm();
  deferred.boot_at = 20 * kMillisecond;

  Machine machine(config);
  machine.AddVm(FleetVm());
  machine.AddVm(deferred);
  machine.Run();

  ClusterSetup setup;
  setup.num_hosts = 1;
  Cluster cluster(config, setup);
  cluster.AddVm(FleetVm());
  cluster.AddVm(deferred);
  cluster.Run();

  ASSERT_EQ(cluster.num_vms(), 2);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(cluster.location(i).host, 0);
    EXPECT_EQ(cluster.location(i).index, i);
    const VmRunResult& bare = machine.result(i);
    const VmRunResult& fleet = cluster.result(i);
    EXPECT_EQ(fleet.transactions, bare.transactions);
    EXPECT_DOUBLE_EQ(fleet.elapsed_s, bare.elapsed_s);
    EXPECT_DOUBLE_EQ(fleet.fmem_access_fraction, bare.fmem_access_fraction);
    EXPECT_EQ(fleet.metrics.ToJson(), bare.metrics.ToJson());
  }
  EXPECT_EQ(cluster.SnapshotMetrics().ToJson(), machine.SnapshotMetrics().ToJson());
}

// ----------------------------------------------------- Multi-host fleet

TEST(ClusterTest, MultiHostRunsAreDeterministic) {
  std::string json[2];
  for (int run = 0; run < 2; ++run) {
    ClusterSetup setup;
    setup.num_hosts = 2;
    Cluster cluster(FleetHost(2), setup);
    for (int i = 0; i < 4; ++i) {
      cluster.AddVm(FleetVm());
    }
    cluster.Run();
    json[run] = cluster.SnapshotMetrics().ToJson();
  }
  EXPECT_EQ(json[0], json[1]);
}

TEST(ClusterTest, TracePidsAreDistinctAcrossHosts) {
  // Spread puts vm0 on host 0 and vm1 on host 1, where each is the host's
  // own VM 0. The merged trace must keep them apart: host h's VM i is pid
  // h * S + i, with S the most VMs any host holds.
  MachineConfig config = FleetHost(1);
  config.capture_trace = true;
  ClusterSetup setup;
  setup.num_hosts = 2;
  setup.placement = PlacementPolicy::kSpread;
  Cluster cluster(config, setup);
  cluster.AddVm(FleetVm());
  cluster.AddVm(FleetVm());
  cluster.Run();
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(cluster.location(i).host, i);
    ASSERT_EQ(cluster.location(i).index, 0);
  }
  const int stride = std::max(cluster.host(0).num_vms(), cluster.host(1).num_vms());
  std::set<int> pids;
  for (const TraceEvent& event : cluster.TakeTrace()) {
    pids.insert(event.pid);
  }
  EXPECT_EQ(pids, (std::set<int>{0, stride}));
}

TEST(ClusterTest, SnapshotNamespacesHostsAndRollup) {
  ClusterSetup setup;
  setup.num_hosts = 2;
  Cluster cluster(FleetHost(1), setup);
  cluster.AddVm(FleetVm());
  cluster.AddVm(FleetVm());
  cluster.Run();
  const MetricSnapshot snapshot = cluster.SnapshotMetrics();
  // Spread-free first-fit still splits 2 VMs over 2 hosts when host 0's
  // FMEM can only hold one — but regardless of placement, both host scopes
  // and the fleet roll-up must be present and disjoint.
  EXPECT_FALSE(snapshot.FilterPrefix("host0/", false).empty());
  EXPECT_FALSE(snapshot.FilterPrefix("cluster/", false).empty());
  const MetricSample* hosts = snapshot.Find("cluster/hosts");
  ASSERT_NE(hosts, nullptr);
  EXPECT_EQ(hosts->gauge, 2.0);
  // Nothing leaks through un-namespaced.
  for (const MetricSample& sample : snapshot.samples()) {
    EXPECT_TRUE(sample.name.rfind("host", 0) == 0 || sample.name.rfind("cluster/", 0) == 0)
        << sample.name;
  }
}

// ------------------------------------------------ Migration resolutions

// After Run the fleet is drained: every in-flight migration resolved, so
// every destination's commitment ledger must be back to zero. A nonzero
// entry here is a charge whose release was skipped (the headroom leak the
// per-destination ledger exists to make impossible).
void ExpectNoResidualCommitments(const Cluster& cluster) {
  const std::vector<LiveMigrator::Commitment>& held = cluster.migrator().DstCommitments();
  ASSERT_EQ(held.size(), static_cast<size_t>(cluster.num_hosts()));
  for (size_t h = 0; h < held.size(); ++h) {
    EXPECT_EQ(held[h].fmem_pages, 0u) << "host " << h;
    EXPECT_EQ(held[h].far_pages, 0u) << "host " << h;
  }
  EXPECT_TRUE(cluster.migrator().AuditCommitments().ok());
}

TEST(CommitmentConservationTest, LedgerMismatchesAreReported) {
  // Invariant 9 over plain data: ledger == per-destination in-flight sums,
  // both directions.
  InvariantReport balanced;
  InvariantChecker::CheckCommitmentConservation({{1, 10, 20}, {1, 5, 0}, {2, 7, 7}},
                                                {{0, 0, 0}, {1, 15, 20}, {2, 7, 7}}, &balanced);
  EXPECT_TRUE(balanced.ok()) << balanced.Join();

  // An aborted migration's charge left on the books: nothing in flight but
  // the ledger still holds pages.
  InvariantReport stale;
  InvariantChecker::CheckCommitmentConservation({}, {{0, 0, 0}, {1, 15, 20}}, &stale);
  ASSERT_EQ(stale.violations.size(), 1u);
  EXPECT_NE(stale.violations[0].find("host1"), std::string::npos);

  // The mirror leak: an in-flight claim the ledger never charged.
  InvariantReport missing;
  InvariantChecker::CheckCommitmentConservation({{1, 5, 5}}, {{0, 0, 0}}, &missing);
  EXPECT_EQ(missing.violations.size(), 1u);
}

TEST(ClusterTest, EvacuationCompletesAndConservesVms) {
  // Host 0 shrinks; its VMs must be pre-copied onto host 1 and finish
  // there, with the lifecycle ledger balancing exactly.
  MachineConfig config = FleetHost(2);
  ClusterSetup setup;
  setup.num_hosts = 2;
  setup.host_faults = {MustParse(kShrinkSpec), FaultPlan{}};
  // A huge stop-copy threshold converges every migration on its first
  // Advance round, so completions are guaranteed even for dirty workloads.
  setup.migration.stop_copy_pages = 1u << 30;

  Cluster cluster(config, setup);
  for (int i = 0; i < 4; ++i) {
    cluster.AddVm(FleetVm(400000));
  }
  cluster.Run();

  const LiveMigrator::Stats& stats = cluster.migration_stats();
  EXPECT_GE(stats.started, 1u);
  EXPECT_GE(stats.completed, 1u);
  EXPECT_EQ(stats.started, stats.completed + stats.aborted + stats.cancelled);
  EXPECT_GT(stats.pages_copied, 0u);
  EXPECT_GT(stats.downtime_ns_total, 0u);

  uint64_t arrivals = 0;
  for (int i = 0; i < cluster.num_vms(); ++i) {
    const VmRunResult& result = cluster.result(i);
    EXPECT_GE(result.transactions, 400000u) << "vm " << i;
    arrivals += result.metrics.CounterValue("lifecycle/migrated_in");
    // The recorded location must actually hold this VM's result.
    EXPECT_GE(cluster.location(i).host, 0);
    EXPECT_GE(cluster.location(i).index, 0);
  }
  EXPECT_EQ(arrivals, stats.completed);
  ExpectNoResidualCommitments(cluster);
}

TEST(ClusterTest, AbortedMigrationLeavesVmOnSource) {
  // migratefail with a 1us budget kills every attempt during the round-0
  // full copy — strictly before ExtractVm, so the source VM is untouched,
  // no frames leak (config.check_invariants audits both hosts), and every
  // VM still finishes where it was placed.
  MachineConfig config = FleetHost(2);
  config.faults = MustParse("migratefail=1.0/1us@0");
  ClusterSetup setup;
  setup.num_hosts = 2;
  setup.host_faults = {MustParse(kShrinkSpec), FaultPlan{}};

  Cluster cluster(config, setup);
  for (int i = 0; i < 4; ++i) {
    cluster.AddVm(FleetVm(400000));
  }
  cluster.Run();

  const LiveMigrator::Stats& stats = cluster.migration_stats();
  EXPECT_GE(stats.started, 1u);
  EXPECT_EQ(stats.aborted, stats.started);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.cancelled, 0u);
  for (int i = 0; i < cluster.num_vms(); ++i) {
    const VmRunResult& result = cluster.result(i);
    EXPECT_GE(result.transactions, 400000u) << "vm " << i;
    // No VM ever moved.
    EXPECT_EQ(result.metrics.CounterValue("lifecycle/migrated_in"), 0u) << "vm " << i;
  }
  EXPECT_GT(cluster.SnapshotMetrics().CounterValue("cluster/fault/live_migrate_fail_injected"),
            0u);
  // The regression this pins: aborts released their destination charge
  // exactly once, so no stale commitment inflates placement's view.
  ExpectNoResidualCommitments(cluster);
}

TEST(ClusterTest, DepartedMidMigrationIsCancelledCleanly) {
  // Migrations that can never converge (stop_copy_pages == 0 and an
  // unreachable round cap) ride along until the victim VM finishes and
  // departs; the migrator must cancel, and the departed-VM emptiness audit
  // (config.check_invariants) must pass on both hosts.
  MachineConfig config = FleetHost(2);
  ClusterSetup setup;
  setup.num_hosts = 2;
  setup.host_faults = {MustParse(kShrinkSpec), FaultPlan{}};
  setup.migration.stop_copy_pages = 0;
  setup.migration.max_precopy_rounds = 1 << 20;

  Cluster cluster(config, setup);
  for (int i = 0; i < 4; ++i) {
    VmSetup vm = FleetVm(400000);
    vm.depart_on_finish = true;
    cluster.AddVm(vm);
  }
  cluster.Run();

  const LiveMigrator::Stats& stats = cluster.migration_stats();
  EXPECT_GE(stats.started, 1u);
  EXPECT_GE(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.started, stats.completed + stats.aborted + stats.cancelled);
  for (int i = 0; i < cluster.num_vms(); ++i) {
    EXPECT_GE(cluster.result(i).transactions, 400000u) << "vm " << i;
  }
  ExpectNoResidualCommitments(cluster);
}

// ------------------------------------------------ Host-failure recovery

TEST(PlacementTest, FallbackPrefersHealthyThenShrinkingThenQuarantined) {
  // Tiered last-resort ordering: healthy beats shrinking beats quarantined,
  // roomiest within a tier, lowest index on ties — and down/excluded hosts
  // are never eligible, even as a last resort.
  std::vector<HostLoad> loads(4);
  loads[0] = Roomy(9000);
  loads[0].down = true;  // Roomiest of all, but fenced.
  loads[1] = Roomy(5000);
  loads[1].quarantined = true;
  loads[2] = Roomy(3000);
  loads[2].shrinking = true;
  loads[3] = Roomy(10);  // Tiny but healthy: still wins.
  EXPECT_EQ(PlacementController::PickFallbackHost(loads), 3);

  loads[3].excluded = true;  // No healthy host: shrinking beats quarantined.
  EXPECT_EQ(PlacementController::PickFallbackHost(loads), 2);

  loads[2].down = true;  // Only the quarantined host is live.
  EXPECT_EQ(PlacementController::PickFallbackHost(loads), 1);

  loads[1].down = true;  // Everything fenced: defer the boot.
  EXPECT_EQ(PlacementController::PickFallbackHost(loads), -1);

  // Within a tier the roomiest host wins; equal room breaks to the lowest
  // index.
  std::vector<HostLoad> tiered = {Roomy(100), Roomy(300), Roomy(300)};
  EXPECT_EQ(PlacementController::PickFallbackHost(tiered), 1);
}

TEST(PlacementTest, DownAndQuarantinedHostsAreIneligible) {
  PlacementController placer(PlacementPolicy::kFirstFit);
  std::vector<HostLoad> loads = {Roomy(5000), Roomy(5000), Roomy(5000)};
  loads[0].down = true;
  loads[1].quarantined = true;
  EXPECT_EQ(placer.PickHost(loads, 100), 2);
}

TEST(PlacementTest, FailureHistoryLosesTiebreaks) {
  // A host that has crashed (or whose migrations keep aborting) scores
  // below an identical clean host, so strict placement steers around it.
  HostLoad crashed = Roomy(1000);
  crashed.failures = 1;
  EXPECT_LT(PlacementController::Score(crashed), PlacementController::Score(Roomy(1000)));
  HostLoad flaky = Roomy(1000);
  flaky.migration_aborts = 3;
  EXPECT_LT(PlacementController::Score(flaky), PlacementController::Score(Roomy(1000)));
  // Whole-host failures dominate abort history.
  EXPECT_LT(PlacementController::Score(crashed), PlacementController::Score(flaky));
}

TEST(HaInvariantTest, HostFencingCatchesResidue) {
  // Family 10 over plain data: a down host must hold no active VMs, touch
  // no in-flight route at either end, and keep no commitment residue.
  const std::vector<bool> down = {true, false};
  InvariantReport clean;
  InvariantChecker::CheckHostFencing(down, {0, 3}, {{1, 1}}, {{0, 0, 0}, {1, 5, 5}}, &clean);
  EXPECT_TRUE(clean.ok()) << clean.Join();

  InvariantReport residents;
  InvariantChecker::CheckHostFencing(down, {2, 3}, {}, {}, &residents);
  EXPECT_FALSE(residents.ok());

  InvariantReport route_src;
  InvariantChecker::CheckHostFencing(down, {0, 3}, {{0, 1}}, {}, &route_src);
  EXPECT_FALSE(route_src.ok());
  InvariantReport route_dst;
  InvariantChecker::CheckHostFencing(down, {0, 3}, {{1, 0}}, {}, &route_dst);
  EXPECT_FALSE(route_dst.ok());

  InvariantReport residue;
  InvariantChecker::CheckHostFencing(down, {0, 3}, {}, {{0, 4, 0}, {1, 0, 0}}, &residue);
  EXPECT_FALSE(residue.ok());
}

TEST(HaInvariantTest, RestartConservationBalances) {
  // Family 11: killed == restarted + queued + lost, violated either way.
  InvariantReport balanced;
  InvariantChecker::CheckRestartConservation(5, 3, 1, 1, &balanced);
  EXPECT_TRUE(balanced.ok()) << balanced.Join();
  InvariantReport leaked;
  InvariantChecker::CheckRestartConservation(5, 3, 0, 1, &leaked);
  EXPECT_FALSE(leaked.ok());
  InvariantReport conjured;
  InvariantChecker::CheckRestartConservation(2, 3, 0, 0, &conjured);
  EXPECT_FALSE(conjured.ok());
}

TEST(ClusterHaTest, HostFailureKillsFencesAndRestarts) {
  // hostfail=1.0 fells host 0 at the first barrier: every resident VM is
  // killed, re-placed on host 1 through the restart queue, and reruns to
  // its full target from zero. check_invariants audits fencing and restart
  // conservation at every barrier. Run twice: HA recovery must be
  // deterministic.
  std::string json[2];
  for (int run = 0; run < 2; ++run) {
    MachineConfig config = FleetHost(4);
    config.faults = MustParse("hostfail=1.0/8ms@0");
    ClusterSetup setup;
    setup.num_hosts = 2;
    Cluster cluster(config, setup);
    for (int i = 0; i < 4; ++i) {
      cluster.AddVm(FleetVm());
    }
    cluster.Run();

    EXPECT_GE(cluster.hosts_failed(), 1u);
    EXPECT_GE(cluster.vms_killed(), 1u);
    EXPECT_EQ(cluster.vms_restarted(), cluster.vms_killed());
    EXPECT_EQ(cluster.vms_lost(), 0u);
    EXPECT_EQ(cluster.restart_queue_depth(), 0u);
    EXPECT_GT(cluster.restart_latency_ns_total(), 0u);
    uint64_t restarts = 0;
    for (int i = 0; i < cluster.num_vms(); ++i) {
      const VmRunResult& result = cluster.result(i);
      EXPECT_GE(result.transactions, 150000u) << "vm " << i;
      // Every survivor lives on host 1 — host 0 re-fails every time it
      // resurrects, and nothing may be placed on a down host.
      EXPECT_EQ(cluster.location(i).host, 1) << "vm " << i;
      restarts += result.metrics.CounterValue("lifecycle/restarts");
    }
    EXPECT_EQ(restarts, cluster.vms_restarted());
    const MetricSnapshot snapshot = cluster.SnapshotMetrics();
    EXPECT_EQ(snapshot.CounterValue("cluster/ha/vms_killed"), cluster.vms_killed());
    EXPECT_EQ(snapshot.CounterValue("cluster/ha/vms_restarted"), cluster.vms_restarted());
    EXPECT_GT(snapshot.CounterValue("cluster/fault/host_fail_injected"), 0u);
    ExpectNoResidualCommitments(cluster);
    json[run] = snapshot.ToJson();
  }
  EXPECT_EQ(json[0], json[1]);
}

TEST(ClusterHaTest, NoRecoveryAblationLosesEveryKill) {
  MachineConfig config = FleetHost(4);
  config.faults = MustParse("hostfail=1.0/8ms@0");
  ClusterSetup setup;
  setup.num_hosts = 2;
  setup.ha.restart = false;
  Cluster cluster(config, setup);
  for (int i = 0; i < 4; ++i) {
    cluster.AddVm(FleetVm());
  }
  cluster.Run();

  EXPECT_GE(cluster.vms_killed(), 1u);
  EXPECT_EQ(cluster.vms_restarted(), 0u);
  EXPECT_EQ(cluster.vms_lost(), cluster.vms_killed());
  EXPECT_EQ(cluster.restart_queue_depth(), 0u);
  // A lost VM committed nothing (its kill predates any real progress here);
  // the survivors on host 1 still run to target.
  uint64_t finished = 0;
  for (int i = 0; i < cluster.num_vms(); ++i) {
    if (cluster.result(i).transactions >= 150000u) {
      ++finished;
    }
  }
  EXPECT_EQ(finished, static_cast<uint64_t>(cluster.num_vms()) - cluster.vms_lost());
  ExpectNoResidualCommitments(cluster);
}

TEST(ClusterHaTest, RestartAdmissionControlBoundsAttemptsThenGivesUp) {
  // A 90% placement headroom reserve makes strict placement reject every
  // host, so boot-time placement goes through the fallback while restarts
  // (strict by design — no fallback) back off and are abandoned after
  // restart_max_attempts. The ledger must still balance.
  MachineConfig config = FleetHost(4);
  config.faults = MustParse("hostfail=1.0/8ms@0");
  ClusterSetup setup;
  setup.num_hosts = 2;
  setup.placement_headroom = 0.9;
  setup.ha.restart_max_attempts = 2;
  setup.ha.restart_backoff_epochs = 1;
  Cluster cluster(config, setup);
  for (int i = 0; i < 4; ++i) {
    cluster.AddVm(FleetVm());
  }
  cluster.Run();

  EXPECT_GE(cluster.vms_killed(), 1u);
  EXPECT_EQ(cluster.vms_restarted(), 0u);  // Strict placement never admits.
  EXPECT_EQ(cluster.vms_lost(), cluster.vms_killed());
  EXPECT_EQ(cluster.restart_queue_depth(), 0u);
}

TEST(ClusterHaTest, MigrationRetriesAccumulateAndExhaust) {
  // Every migration aborts in its round-0 copy (1us budget), so each
  // retry re-aborts immediately: attempts must accumulate across re-launches
  // (not reset), hitting retry_exhausted instead of retrying forever.
  MachineConfig config = FleetHost(2);
  config.faults = MustParse("migratefail=1.0/1us@0,migratefail=1.0/1us@1");
  ClusterSetup setup;
  setup.num_hosts = 2;
  setup.host_faults = {MustParse(kShrinkSpec), FaultPlan{}};
  setup.migration.max_retries = 2;
  setup.migration.retry_backoff_epochs = 1;
  Cluster cluster(config, setup);
  for (int i = 0; i < 4; ++i) {
    cluster.AddVm(FleetVm(400000));
  }
  cluster.Run();

  const LiveMigrator::Stats& stats = cluster.migration_stats();
  EXPECT_GE(stats.started, 1u);
  EXPECT_EQ(stats.aborted, stats.started);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_GE(cluster.migration_retries(), 1u);
  EXPECT_GE(cluster.migration_retries_exhausted(), 1u);
  for (int i = 0; i < cluster.num_vms(); ++i) {
    EXPECT_GE(cluster.result(i).transactions, 400000u) << "vm " << i;
  }
  ExpectNoResidualCommitments(cluster);
}

TEST(ClusterHaTest, FencedDestinationIsReplannedToFreshHost) {
  // Three hosts: host 0 evacuates under shrink, host 1 (the first-fit
  // destination) fail-stops intermittently, host 2 never fails. Migrations
  // in flight toward host 1 when it dies must be fenced — commitment
  // released, counted as fenced, never aborted — and re-planned through
  // the retry queue toward host 2.
  MachineConfig config = FleetHost(4);
  // Low per-barrier probability: host 1 survives long enough to be picked
  // as the first-fit destination, then dies during the endless pre-copy.
  config.faults = MustParse("hostfail=0.1/8ms@1");
  ClusterSetup setup;
  setup.num_hosts = 3;
  setup.host_faults = {MustParse(kShrinkSpec), FaultPlan{}, FaultPlan{}};
  // Never-converging pre-copy: migrations stay in flight until fenced or
  // cancelled, maximizing exposure to the destination's failure window.
  setup.migration.stop_copy_pages = 0;
  setup.migration.max_precopy_rounds = 1 << 20;
  setup.migration.max_retries = 3;
  setup.migration.retry_backoff_epochs = 1;
  // Short quarantine keeps host 1 cycling back into the destination pool,
  // so migrations keep landing on it right before its next failure draw.
  setup.ha.quarantine_epochs = 1;
  Cluster cluster(config, setup);
  for (int i = 0; i < 6; ++i) {
    cluster.AddVm(FleetVm(400000));
  }
  cluster.Run();

  const LiveMigrator::Stats& stats = cluster.migration_stats();
  EXPECT_GE(stats.fenced, 1u);
  EXPECT_GE(cluster.migration_retries(), 1u);
  EXPECT_EQ(stats.started, stats.completed + stats.aborted + stats.cancelled + stats.fenced);
  EXPECT_EQ(cluster.SnapshotMetrics().CounterValue("cluster/migration/fenced"), stats.fenced);
  // Every VM that survived (host 1's residents may die and restart) ran to
  // target; conservation across kill/restart is audited every barrier.
  EXPECT_EQ(cluster.vms_killed(), cluster.vms_restarted() + cluster.vms_lost());
  ExpectNoResidualCommitments(cluster);
}

// Eight hosts are more than most machines have cores, so the pool's
// workers each step several hosts per barrier. Even hosts fail-stop, hosts
// 1 and 5 shrink and evacuate, migratefail hits every host and aborted
// routes retry: the run crosses every barrier phase and must still repeat
// byte for byte, with both ledgers balanced.
TEST(ClusterTest, ConcurrentEightHostFleetIsDeterministic) {
  std::string faults;
  for (int h = 0; h < 8; ++h) {
    faults += (h == 0 ? "" : ",") + std::string("migratefail=0.5/1ms@") + std::to_string(h);
    if (h % 2 == 0) {
      faults += ",hostfail=0.5/8ms@" + std::to_string(h);
    }
  }
  std::string json[2];
  std::vector<ClusterVmLocation> where[2];
  std::vector<VmRunResult> results[2];
  for (int run = 0; run < 2; ++run) {
    MachineConfig config = FleetHost(4);
    config.faults = MustParse(faults);
    ClusterSetup setup;
    setup.num_hosts = 8;
    setup.epoch = 2 * kMillisecond;
    const FaultPlan shrink = MustParse("tiershrink=0.3/4ms/8ms@0");
    setup.host_faults = {FaultPlan{}, shrink, FaultPlan{}, FaultPlan{}};
    setup.migration.max_retries = 3;
    setup.migration.retry_backoff_epochs = 1;
    Cluster cluster(config, setup);
    for (int i = 0; i < 16; ++i) {
      cluster.AddVm(FleetVm(100000));
    }
    cluster.Run();

    const LiveMigrator::Stats& stats = cluster.migration_stats();
    EXPECT_GE(stats.started, 1u);
    EXPECT_GE(stats.aborted, 1u);
    EXPECT_GE(cluster.migration_retries(), 1u);
    EXPECT_GE(cluster.vms_killed(), 1u);
    EXPECT_EQ(stats.started, stats.completed + stats.aborted + stats.cancelled + stats.fenced);
    EXPECT_EQ(cluster.vms_killed(),
              cluster.vms_restarted() + cluster.restart_queue_depth() + cluster.vms_lost());
    ExpectNoResidualCommitments(cluster);
    json[run] = cluster.SnapshotMetrics().ToJson();
    for (int i = 0; i < cluster.num_vms(); ++i) {
      where[run].push_back(cluster.location(i));
      results[run].push_back(cluster.result(i));
    }
  }
  EXPECT_EQ(json[0], json[1]);
  ASSERT_EQ(results[0].size(), results[1].size());
  for (size_t i = 0; i < results[0].size(); ++i) {
    EXPECT_EQ(where[0][i].host, where[1][i].host) << "vm " << i;
    EXPECT_EQ(where[0][i].index, where[1][i].index) << "vm " << i;
    EXPECT_EQ(results[0][i].transactions, results[1][i].transactions) << "vm " << i;
    EXPECT_EQ(results[0][i].elapsed_s, results[1][i].elapsed_s) << "vm " << i;
    EXPECT_EQ(results[0][i].fmem_access_fraction, results[1][i].fmem_access_fraction)
        << "vm " << i;
    EXPECT_EQ(results[0][i].metrics.ToJson(), results[1][i].metrics.ToJson()) << "vm " << i;
  }
}


TEST(ClusterTest, BlockedEvacuationReattemptsAfterCooldown) {
  // max_inflight=1 with several VMs on the shrinking host: the first
  // barrier in the window starts one evacuation and the rest are blocked by
  // the inflight cap — NOT counted as "no destination". After the inflight
  // migration completes and the source's cooldown expires, evacuation must
  // re-attempt and move another VM.
  MachineConfig config = FleetHost(4);
  ClusterSetup setup;
  setup.num_hosts = 2;
  setup.host_faults = {MustParse(kShrinkSpec), FaultPlan{}};
  setup.migration.stop_copy_pages = 1u << 30;  // Complete on first Advance.
  setup.migration.max_inflight = 1;
  setup.migration.cooldown_epochs = 1;
  Cluster cluster(config, setup);
  for (int i = 0; i < 4; ++i) {
    cluster.AddVm(FleetVm(400000));
  }
  cluster.Run();

  const LiveMigrator::Stats& stats = cluster.migration_stats();
  EXPECT_GE(stats.started, 2u) << "capped evacuation never re-attempted";
  EXPECT_EQ(cluster.evacuations_without_destination(), 0u);
  EXPECT_EQ(stats.started, stats.completed + stats.aborted + stats.cancelled);
  for (int i = 0; i < cluster.num_vms(); ++i) {
    EXPECT_GE(cluster.result(i).transactions, 400000u) << "vm " << i;
  }
  ExpectNoResidualCommitments(cluster);
}

// ------------------------------------------------------- Seed independence

// Every random stream of a 4-host fleet is its own: each host's workload
// Rng, each (host, vm, site) lane of the per-host injectors and each
// (host, site) lane of the cluster-scoped injector. Hosts' seeds differ by
// SplitMix64's increment; a fault lane that strides by the same constant
// would replay a neighbour host's stream one lane over.
TEST(ClusterSeedTest, FourHostStreamsArePairwiseDistinct) {
  constexpr int kHosts = 4;
  constexpr int kVms = 3;
  constexpr int kDraws = 64;
  // Every probability site a machine draws; window sites draw nothing.
  const FaultSite kVmSites[] = {
      FaultSite::kBalloonDelay,  FaultSite::kBalloonDrop,    FaultSite::kPebsSampleLoss,
      FaultSite::kMigrationFail, FaultSite::kTierExhaustion, FaultSite::kPoisonFmem,
      FaultSite::kPoisonSmem,    FaultSite::kSwapFail,
  };
  std::string spec =
      "bdelay=0.5/1ms,bdrop=0.5,pebsdrop=0.5,migfail=0.5,tierex=0.5,poison=0.5@0,"
      "poison=0.5@1,swapfail=0.5/1ms";
  for (int h = 0; h < kHosts; ++h) {
    spec += ",migratefail=0.5/1ms@" + std::to_string(h) + ",hostfail=0.5/1ms@" +
            std::to_string(h);
  }
  const FaultPlan plan = MustParse(spec);
  const uint64_t seed = FleetHost().seed;

  std::vector<std::pair<std::string, std::string>> streams;  // (name, decisions)
  auto draw = [&](const std::string& name, const auto& decide) {
    std::string bits;
    for (int i = 0; i < kDraws; ++i) {
      bits += decide() ? '1' : '0';
    }
    streams.emplace_back(name, bits);
  };
  FaultInjector cluster_faults(plan, seed);
  for (int h = 0; h < kHosts; ++h) {
    const std::string host = "host" + std::to_string(h);
    Rng workload(HostSeed(seed, h));
    draw(host + " workload", [&] { return workload.NextBool(0.5); });
    FaultInjector faults(plan, HostSeed(seed, h));
    for (int vm = 0; vm < kVms; ++vm) {
      for (FaultSite site : kVmSites) {
        draw(host + " vm" + std::to_string(vm) + " " + FaultSiteName(site),
             [&] { return faults.ShouldInject(site, vm); });
      }
    }
    draw(host + " migratefail", [&] { return cluster_faults.ShouldFailMigration(h); });
    draw(host + " hostfail", [&] { return cluster_faults.ShouldFailHost(h); });
  }
  ASSERT_EQ(streams.size(), kHosts * (1 + kVms * std::size(kVmSites) + 2));
  for (size_t a = 0; a < streams.size(); ++a) {
    for (size_t b = a + 1; b < streams.size(); ++b) {
      EXPECT_NE(streams[a].second, streams[b].second)
          << streams[a].first << " replays " << streams[b].first;
    }
  }
}

// ------------------------------------------------- RunExperiment plumbing

ExperimentSpec ClusterSpec(int num_hosts) {
  ExperimentSpec spec;
  spec.name = "fleet";
  spec.tag = "test";
  spec.config = FleetHost(2);
  spec.vms = {FleetVm(), FleetVm()};
  spec.cluster.num_hosts = num_hosts;
  return spec;
}

TEST(ClusterExperimentTest, RunnerTakesClusterPath) {
  ExperimentSpec spec = ClusterSpec(2);
  spec.cluster.host_faults = {MustParse(kShrinkSpec), FaultPlan{}};
  spec.cluster.migration.stop_copy_pages = 1u << 30;
  const ExperimentResult result = RunExperiment(spec);
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.vms.size(), 2u);
  for (const VmRunResult& vm : result.vms) {
    EXPECT_GE(vm.transactions, 150000u);
  }
  // Multi-host metrics keep their full namespacing.
  EXPECT_NE(result.host_metrics.Find("cluster/hosts"), nullptr);
  EXPECT_FALSE(result.host_metrics.FilterPrefix("host0/", false).empty());

  // Single-host cluster specs strip "host/" exactly like the classic path.
  const ExperimentResult single = RunExperiment(ClusterSpec(1));
  ASSERT_TRUE(single.ok);
  EXPECT_EQ(single.host_metrics.Find("cluster/hosts"), nullptr);
  EXPECT_FALSE(single.host_metrics.FilterPrefix("hyper/", false).empty());
}

}  // namespace
}  // namespace demeter
