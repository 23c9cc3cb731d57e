#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <utility>

#include "src/harness/machine.h"
#include "src/harness/table.h"

namespace demeter {
namespace {

MachineConfig SmallHost(int vms = 1) {
  MachineConfig config;
  // Host sized so each VM's FMEM node fits its share of DRAM.
  const uint64_t per_vm = 32 * kMiB;
  config.tiers = {TierSpec::LocalDram(per_vm * static_cast<uint64_t>(vms)),
                  TierSpec::Pmem(3 * per_vm * static_cast<uint64_t>(vms))};
  return config;
}

VmSetup SmallVm(PolicyKind policy, const std::string& workload = "gups") {
  VmSetup setup;
  setup.vm.total_memory_bytes = 32 * kMiB;
  setup.vm.fmem_ratio = 0.2;
  setup.vm.num_vcpus = 2;
  setup.workload = workload;
  setup.footprint_bytes = 24 * kMiB;
  setup.target_transactions = 800000;
  setup.policy = policy;
  setup.demeter.range.epoch_length = 10 * kMillisecond;
  setup.demeter.sample_period = 97;  // Scaled-down run: denser sampling.
  setup.demeter.range.split_threshold = 4.0;  // Margin scaled with sample rate.
  setup.policy_period = 15 * kMillisecond;
  return setup;
}

TEST(Machine, RunsToTransactionTarget) {
  Machine machine(SmallHost());
  const int i = machine.AddVm(SmallVm(PolicyKind::kStatic));
  machine.Run();
  const VmRunResult& result = machine.result(i);
  EXPECT_GE(result.transactions, 800000u);
  EXPECT_GT(result.elapsed_s, 0.0);
  EXPECT_GT(result.vm_stats.accesses, 1600000u);
  EXPECT_EQ(result.policy, "static");
  EXPECT_EQ(result.workload, "gups");
  EXPECT_FALSE(result.timeline.empty());
}

TEST(Machine, DeterministicResults) {
  double elapsed[2];
  for (int run = 0; run < 2; ++run) {
    Machine machine(SmallHost());
    const int i = machine.AddVm(SmallVm(PolicyKind::kDemeter));
    machine.Run();
    elapsed[run] = machine.result(i).elapsed_s;
  }
  EXPECT_DOUBLE_EQ(elapsed[0], elapsed[1]);
}

TEST(Machine, DemeterBeatsStaticOnGups) {
  // The headline sanity check: with the hot set born in SMEM, Demeter must
  // outperform no-management by promoting it into FMEM.
  Machine static_machine(SmallHost());
  const int s = static_machine.AddVm(SmallVm(PolicyKind::kStatic));
  static_machine.Run();

  Machine demeter_machine(SmallHost());
  const int d = demeter_machine.AddVm(SmallVm(PolicyKind::kDemeter));
  demeter_machine.Run();

  const double static_s = static_machine.result(s).elapsed_s;
  const double demeter_s = demeter_machine.result(d).elapsed_s;
  EXPECT_LT(demeter_s, static_s * 0.9)
      << "Demeter should be >10% faster (static=" << static_s << "s demeter=" << demeter_s << "s)";
  // And the FMEM hit fraction must be visibly higher.
  EXPECT_GT(demeter_machine.result(d).fmem_access_fraction,
            static_machine.result(s).fmem_access_fraction + 0.1);
}

TEST(Machine, GuestPoliciesAvoidFullFlushes) {
  Machine machine(SmallHost());
  const int i = machine.AddVm(SmallVm(PolicyKind::kDemeter));
  machine.Run();
  EXPECT_EQ(machine.result(i).tlb.full_flushes, 0u);
  EXPECT_GT(machine.result(i).tlb.single_flushes, 0u);
}

TEST(Machine, HypervisorPolicyFullFlushes) {
  Machine machine(SmallHost());
  const int i = machine.AddVm(SmallVm(PolicyKind::kHTpp));
  machine.Run();
  EXPECT_GT(machine.result(i).tlb.full_flushes, 0u) << "invept per MMU-notifier scan";
}

TEST(Machine, MultiVmAllFinish) {
  Machine machine(SmallHost(3));
  for (int v = 0; v < 3; ++v) {
    machine.AddVm(SmallVm(PolicyKind::kTpp));
  }
  machine.Run();
  for (int v = 0; v < 3; ++v) {
    EXPECT_GE(machine.result(v).transactions, 800000u);
    EXPECT_GT(machine.result(v).MgmtCores(), 0.0);
    EXPECT_GT(machine.result(v).elapsed_s, 0.0);
  }
}

TEST(Machine, DemeterBalloonProvisioningMatchesStaticSizes) {
  Machine machine(SmallHost());
  VmSetup setup = SmallVm(PolicyKind::kStatic);
  setup.provision = ProvisionMode::kDemeterBalloon;
  const int i = machine.AddVm(setup);
  machine.Run();
  Vm& vm = machine.vm(i);
  EXPECT_EQ(vm.kernel().node(0).present_pages(), setup.vm.fmem_pages());
  EXPECT_EQ(vm.kernel().node(1).present_pages(), setup.vm.smem_pages());
  EXPECT_GE(machine.result(i).transactions, 800000u);
}

TEST(Machine, VirtioBalloonUnderProvisionsFmem) {
  Machine machine(SmallHost());
  VmSetup setup = SmallVm(PolicyKind::kStatic);
  setup.provision = ProvisionMode::kVirtioBalloon;
  const int i = machine.AddVm(setup);
  machine.Run();
  Vm& vm = machine.vm(i);
  // Tier-blind inflation ate FMEM: far below the intended 20% share.
  EXPECT_LT(vm.kernel().node(0).present_pages(), setup.vm.fmem_pages() / 2);
}

TEST(Machine, VirtioBalloonSlowerThanDemeterBalloon) {
  double elapsed[2];
  const ProvisionMode modes[2] = {ProvisionMode::kVirtioBalloon, ProvisionMode::kDemeterBalloon};
  for (int m = 0; m < 2; ++m) {
    Machine machine(SmallHost());
    VmSetup setup = SmallVm(PolicyKind::kDemeter);
    setup.provision = modes[m];
    const int i = machine.AddVm(setup);
    machine.Run();
    elapsed[m] = machine.result(i).elapsed_s;
  }
  EXPECT_GT(elapsed[0], elapsed[1] * 1.1) << "FMEM under-provisioning must hurt";
}

TEST(Machine, SiloLatencyPercentilesPopulated) {
  Machine machine(SmallHost());
  VmSetup setup = SmallVm(PolicyKind::kDemeter, "silo");
  setup.target_transactions = 20000;
  const int i = machine.AddVm(setup);
  machine.Run();
  const Histogram& lat = machine.result(i).txn_latency_ns;
  EXPECT_GE(lat.count(), 20000u);
  EXPECT_GT(lat.Percentile(99), lat.Percentile(50));
}

TEST(Machine, MetricsRegistryPopulatedAfterRun) {
  MachineConfig config = SmallHost();
  Machine machine(config);
  const int i = machine.AddVm(SmallVm(PolicyKind::kDemeter));
  machine.Run();

  const MetricSnapshot snap = machine.SnapshotMetrics();
  // Registry values are views over the same cells the legacy accessors read.
  EXPECT_EQ(snap.CounterValue("vm0/stats/accesses"), machine.result(i).vm_stats.accesses);
  EXPECT_EQ(snap.CounterValue("vm0/tlb/misses"), machine.result(i).tlb.misses);
  EXPECT_GT(snap.CounterValue("vm0/vcpu0/tlb/hits"), 0u);
  EXPECT_GT(snap.CounterValue("vm0/vcpu0/pebs/events_counted"), 0u);
  EXPECT_GT(snap.CounterValue("vm0/policy/epochs_run"), 0u);
  EXPECT_GT(snap.CounterValue("vm0/mgmt/total_ns"), 0u);
  EXPECT_GT(snap.CounterValue("host/hyper/ept_populates"), 0u);
  const MetricSample* walk = snap.Find("vm0/mmu/walk_cost_ns");
  ASSERT_NE(walk, nullptr);
  EXPECT_GT(walk->distribution.count, 0u);

  // Per-VM result snapshots are the vm0/ slice with the prefix stripped.
  EXPECT_EQ(machine.result(i).metrics.CounterValue("stats/accesses"),
            machine.result(i).vm_stats.accesses);
}

TEST(Machine, TraceCaptureRecordsEventsWithoutChangingResults) {
  double elapsed[2];
  size_t events = 0;
  for (int pass = 0; pass < 2; ++pass) {
    MachineConfig config = SmallHost();
    config.capture_trace = pass == 1;
    Machine machine(config);
    const int i = machine.AddVm(SmallVm(PolicyKind::kDemeter));
    machine.Run();
    elapsed[pass] = machine.result(i).elapsed_s;
    events = machine.TakeTrace().size();
  }
  // Tracing is pure observability: identical simulation either way.
  EXPECT_DOUBLE_EQ(elapsed[0], elapsed[1]);
  EXPECT_GT(events, 0u) << "enabled tracer should have captured migration/PMI events";
}

TEST(MachineDeathTest, AddVmRejectsBootAtOutsideTheClockDomain) {
  // vCPU clocks are plain doubles with a stated domain: a VM booting at or
  // past 2^48 ns is refused when it is added, before anything runs.
  Machine machine(SmallHost());
  VmSetup setup = SmallVm(PolicyKind::kStatic);
  setup.boot_at = kVcpuClockLimitNs - 1;  // The domain's last nanosecond.
  machine.AddVm(setup);
  setup.boot_at = kVcpuClockLimitNs;
  EXPECT_DEATH(machine.AddVm(setup), "boot_at 281474976710656 ns is outside");
}

TEST(MachineDeathTest, AdmitVmRejectsBootOutsideTheClockDomain) {
  // A mid-run admission is refused for an admission time past the domain
  // as well as for a setup whose boot_at lies past it.
  Machine machine(SmallHost());
  machine.StartRun();
  VmSetup setup = SmallVm(PolicyKind::kStatic);
  EXPECT_DEATH(machine.AdmitVm(setup, kVcpuClockLimitNs),
               "AdmitVm at 281474976710656 ns is outside");
  setup.boot_at = kVcpuClockLimitNs;
  EXPECT_DEATH(machine.AdmitVm(setup, 0), "boot_at 281474976710656 ns is outside");
}

TEST(Machine, TimelineGrowthCappedUnderPathologicalBucketing) {
  // A 1 ns timeline bucket with a stall schedule used to resize the
  // timeline to one slot per elapsed nanosecond — hundreds of millions of
  // entries. Growth must stop at kMaxTimelineBuckets, with every overflow
  // transaction accounted in the final bucket.
  MachineConfig config = SmallHost();
  const auto plan = FaultPlan::Parse("stall=5ms/20ms");
  ASSERT_TRUE(plan.has_value());
  config.faults = *plan;
  Machine machine(config);
  VmSetup setup = SmallVm(PolicyKind::kStatic);
  setup.target_transactions = 50000;
  setup.timeline_bucket = 1;  // 1 ns: pathological.
  const int i = machine.AddVm(setup);
  machine.Run();
  const VmRunResult& result = machine.result(i);
  EXPECT_LE(result.timeline.size(), kMaxTimelineBuckets);
  uint64_t sum = 0;
  for (const uint64_t b : result.timeline) {
    sum += b;
  }
  EXPECT_EQ(sum, result.transactions);
  // The run outlives the cap by orders of magnitude, so the final bucket
  // must actually have absorbed overflow.
  ASSERT_FALSE(result.timeline.empty());
  EXPECT_GT(result.timeline.back(), 1u);
}

// The minimum vCPU clock over `vms`, read from the vCPUs themselves.
Nanos MinClockOf(Machine& machine, std::initializer_list<int> vms) {
  Nanos min_clock = ~static_cast<Nanos>(0);
  for (const int i : vms) {
    for (int v = 0; v < machine.vm(i).num_vcpus(); ++v) {
      min_clock = std::min(min_clock, machine.vm(i).vcpu(v).now());
    }
  }
  return min_clock;
}

// Steps `machine` a millisecond past its minimum clock at a time until
// `done` holds; fails the test if the machine runs dry first.
template <typename Done>
void StepUntilDone(Machine& machine, Done done) {
  while (!done()) {
    ASSERT_TRUE(machine.StepUntil(machine.MinActiveClock() + kMillisecond));
  }
}

TEST(Machine, ActiveSetAndMinClockFollowEveryLifecycleStep) {
  // VM 0 departs when it finishes, VM 1 runs long, VM 2 boots late. After
  // each lifecycle step the active set and the minimum clock must match
  // the VMs' own state.
  Machine a(SmallHost(3));
  VmSetup early = SmallVm(PolicyKind::kStatic);
  early.target_transactions = 100000;
  early.depart_on_finish = true;
  VmSetup steady = SmallVm(PolicyKind::kDemeter);
  steady.target_transactions = 2000000;
  VmSetup late = SmallVm(PolicyKind::kStatic);
  late.target_transactions = 2000000;
  late.boot_at = 40 * kMillisecond;  // Past the init passes (about 36 ms).
  a.AddVm(early);
  a.AddVm(steady);
  a.AddVm(late);
  a.StartRun();
  EXPECT_EQ(a.NumActiveVms(), 2);
  EXPECT_TRUE(a.VmActive(0));
  EXPECT_TRUE(a.VmActive(1));
  EXPECT_FALSE(a.VmActive(2));
  EXPECT_EQ(a.MinActiveClock(), MinClockOf(a, {0, 1}));
  ASSERT_LT(a.MinActiveClock(), late.boot_at) << "the init passes ran past vm 2's boot";

  // A deferred boot_at: VM 2 joins once the minimum clock reaches it.
  StepUntilDone(a, [&] { return a.VmActive(2); });
  EXPECT_TRUE(a.VmActive(0)) << "vm 0 finished before vm 2 booted";
  EXPECT_EQ(a.NumActiveVms(), 3);
  EXPECT_EQ(a.MinActiveClock(), MinClockOf(a, {0, 1, 2}));

  // depart_on_finish: VM 0 leaves the active set when it reaches its target.
  StepUntilDone(a, [&] { return !a.VmActive(0); });
  EXPECT_TRUE(a.vm(0).departed());
  EXPECT_EQ(a.NumActiveVms(), 2);
  EXPECT_EQ(a.MinActiveClock(), MinClockOf(a, {1, 2}));

  // KillVm takes VM 2 out at once.
  a.KillVm(2, a.MinActiveClock());
  EXPECT_FALSE(a.VmActive(2));
  EXPECT_EQ(a.NumActiveVms(), 1);
  EXPECT_EQ(a.MinActiveClock(), MinClockOf(a, {1}));

  // ExtractVm/AdoptVm: VM 1 moves to a second running machine.
  Machine b(SmallHost(2));
  late.boot_at = 0;
  b.AddVm(late);
  b.StartRun();
  ASSERT_EQ(b.NumActiveVms(), 1);
  MigratedVm moved = a.ExtractVm(1, a.MinActiveClock());
  EXPECT_FALSE(a.VmActive(1));
  EXPECT_EQ(a.NumActiveVms(), 0);
  EXPECT_EQ(a.MinActiveClock(), 0u);
  EXPECT_FALSE(a.StepUntil(Machine::kNoHorizon)) << "a machine with no active VM is done";
  const int adopted = b.AdoptVm(std::move(moved), b.MinActiveClock(), 0.0);
  EXPECT_TRUE(b.VmActive(adopted));
  EXPECT_EQ(b.NumActiveVms(), 2);
  EXPECT_EQ(b.MinActiveClock(), MinClockOf(b, {0, adopted}));
}

TEST(Machine, PolicyNamesRoundTrip) {
  for (PolicyKind kind : {PolicyKind::kStatic, PolicyKind::kDemeter, PolicyKind::kTpp,
                          PolicyKind::kHTpp, PolicyKind::kMemtis, PolicyKind::kNomad}) {
    EXPECT_EQ(PolicyKindFromName(PolicyKindName(kind)), kind);
  }
  EXPECT_DEATH(PolicyKindFromName("bogus"), "unknown policy");
}

TEST(TablePrinterTest, FormatsNumbers) {
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Fmt(uint64_t{42}), "42");
}

}  // namespace
}  // namespace demeter
