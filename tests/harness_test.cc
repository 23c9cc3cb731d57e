#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>

#include "src/harness/machine.h"
#include "src/harness/table.h"

// Sanitizers replace malloc, so glibc's arena statistics say nothing there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DEMETER_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define DEMETER_TEST_SANITIZED 1
#endif
#endif

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

// ---- Released VMs ------------------------------------------------------------
// Once a VM leaves its host, Vm::ReleaseStorage frees its TLB arrays, page
// tables below the roots, rmap arrays, allocation FIFOs and PEBS buffers.
// Whichever way it left, every later call must answer as the emptied
// structures did.

enum class Departure { kRemove, kKill, kExtract };

std::string DepartureName(const ::testing::TestParamInfo<Departure>& info) {
  switch (info.param) {
    case Departure::kRemove:
      return "RemoveVm";
    case Departure::kKill:
      return "KillVm";
    case Departure::kExtract:
      return "ExtractVm";
  }
  return "unknown";
}

class ReleasedVmTest : public ::testing::TestWithParam<Departure> {};

TEST_P(ReleasedVmTest, AnswersAsTheEmptiedVmDid) {
  Machine machine(SmallHost(2));
  // TPP-H migrates on the host side, so the EPT has remaps to keep.
  VmSetup subject = SmallVm(PolicyKind::kHTpp);
  subject.target_transactions = 100000000;
  machine.AddVm(subject);
  machine.AddVm(SmallVm(PolicyKind::kDemeter));
  machine.StartRun();
  Vm& vm = machine.vm(0);
  StepUntilDone(machine, [&] { return vm.ept().remap_count() > 0; });
  GuestProcess& proc = *vm.kernel().processes().front();
  // A page cached in a vCPU's TLB, hence mapped in both dimensions.
  std::optional<PageNum> cached;
  StepUntilDone(machine, [&] {
    vm.vcpu(0).tlb.ForEachValid([&](PageNum v, FrameId) { cached = v; });
    return cached.has_value();
  });
  const PageNum vpn = *cached;
  const PageNum gpa = proc.gpt().Lookup(vpn).target;
  ASSERT_TRUE(vm.ept().IsMapped(gpa));
  ASSERT_TRUE(vm.kernel().Rmap(gpa).has_value());
  const uint64_t ept_remaps = vm.ept().remap_count();
  const uint64_t ept_dirty_lost = vm.ept().remap_dirty_lost();
  const uint64_t gpt_remaps = proc.gpt().remap_count();

  const Nanos now = machine.MinActiveClock();
  switch (GetParam()) {
    case Departure::kRemove:
      machine.RemoveVm(0, now);
      break;
    case Departure::kKill:
      machine.KillVm(0, now);
      break;
    case Departure::kExtract:
      machine.ExtractVm(0, now);
      break;
  }
  ASSERT_TRUE(vm.departed());

  // Flushes still count, one instruction per vCPU.
  const TlbStats before = vm.AggregateTlbStats();
  vm.FlushGvaAll(vpn);
  vm.FullFlushAll();
  const TlbStats after = vm.AggregateTlbStats();
  const uint64_t vcpus = static_cast<uint64_t>(vm.num_vcpus());
  EXPECT_EQ(after.single_flushes, before.single_flushes + vcpus);
  EXPECT_EQ(after.full_flushes, before.full_flushes + vcpus);

  // The TLBs miss and hold nothing.
  for (int v = 0; v < vm.num_vcpus(); ++v) {
    Tlb& tlb = vm.vcpu(v).tlb;
    const uint64_t misses = tlb.stats().misses;
    EXPECT_EQ(tlb.Lookup(vpn), kInvalidFrame) << "vcpu " << v;
    EXPECT_EQ(tlb.stats().misses, misses + 1) << "vcpu " << v;
    int valid = 0;
    tlb.ForEachValid([&](PageNum, FrameId) { ++valid; });
    EXPECT_EQ(valid, 0) << "vcpu " << v;
    EXPECT_EQ(vm.vcpu(v).pebs->reserved(), 0u) << "vcpu " << v;
  }

  // The page tables find nothing and keep their remap counters.
  EXPECT_FALSE(proc.gpt().Lookup(vpn).present);
  EXPECT_FALSE(vm.ept().Lookup(gpa).present);
  int present = 0;
  proc.gpt().ForEachPresent(0, PageTable::kMaxPage,
                            [&](PageNum, uint64_t, bool, bool) { ++present; });
  vm.ept().ForEachPresent(0, PageTable::kMaxPage,
                          [&](PageNum, uint64_t, bool, bool) { ++present; });
  EXPECT_EQ(present, 0);
  EXPECT_EQ(vm.ept().remap_count(), ept_remaps);
  EXPECT_EQ(vm.ept().remap_dirty_lost(), ept_dirty_lost);
  EXPECT_EQ(proc.gpt().remap_count(), gpt_remaps);

  // The reverse map and the victim FIFOs are empty.
  EXPECT_FALSE(vm.kernel().Rmap(gpa).has_value());
  EXPECT_FALSE(vm.kernel().PickVictim(0).has_value());
  EXPECT_FALSE(vm.kernel().PickVictim(1).has_value());

  const InvariantReport report = machine.CheckInvariants();
  EXPECT_TRUE(report.ok()) << report.Join();
  EXPECT_GT(report.gpt_pages_audited + report.ept_pages_audited, 0u)
      << "the co-tenant's pages were audited";
}

INSTANTIATE_TEST_SUITE_P(Departures, ReleasedVmTest,
                         ::testing::Values(Departure::kRemove, Departure::kKill,
                                           Departure::kExtract),
                         DepartureName);

// Freeing storage moves no counter: the departed VM's `vm<i>/` snapshot is
// the same just before and just after the release step.
TEST(Machine, ReleaseStepKeepsTheVmMetricSnapshot) {
  Machine machine(SmallHost());
  VmSetup setup = SmallVm(PolicyKind::kDemeter);
  setup.target_transactions = 100000000;
  machine.AddVm(setup);
  machine.StartRun();
  Vm& vm = machine.vm(0);
  // Run until every Demeter PEBS unit holds records, so the buffers freed
  // are live ones.
  StepUntilDone(machine, [&] {
    for (int v = 0; v < vm.num_vcpus(); ++v) {
      if (vm.vcpu(v).pebs->buffered() == 0) {
        return false;
      }
    }
    return true;
  });
  // TearDownVm's steps, with a snapshot between reclaim and release.
  machine.policy(0)->Stop();
  vm.set_departed(true);
  machine.hypervisor().ReclaimVm(vm);
  const std::string before = machine.SnapshotMetrics().FilterPrefix("vm0/").ToJson();
  vm.ReleaseStorage();
  const std::string after = machine.SnapshotMetrics().FilterPrefix("vm0/").ToJson();
  EXPECT_GT(before.size(), 1000u);
  EXPECT_EQ(before, after);
}

// A TPP VM never samples, so its PEBS units never reserve a buffer.
TEST(Machine, TppVmHoldsNoPebsBuffer) {
  Machine machine(SmallHost());
  const int i = machine.AddVm(SmallVm(PolicyKind::kTpp));
  machine.Run();
  ASSERT_GE(machine.result(i).transactions, 800000u);
  ASSERT_FALSE(machine.vm(i).departed());
  for (int v = 0; v < machine.vm(i).num_vcpus(); ++v) {
    EXPECT_EQ(machine.vm(i).vcpu(v).pebs->reserved(), 0u) << "vcpu " << v;
  }
}

TEST(Machine, PolicyNamesRoundTrip) {
  for (PolicyKind kind : {PolicyKind::kStatic, PolicyKind::kDemeter, PolicyKind::kTpp,
                          PolicyKind::kHTpp, PolicyKind::kMemtis, PolicyKind::kNomad}) {
    EXPECT_EQ(PolicyKindFromName(PolicyKindName(kind)), kind);
  }
  EXPECT_DEATH(PolicyKindFromName("bogus"), "unknown policy");
}

// Simulator heap per tenant on a 16-tenant host shaped like perfbench's
// dense-scan: 16 MiB btree tenants alternating TPP / TPP-H, every 8th
// booting late and every 5th departing, run to their targets. glibc's
// in-use bytes (small chunks plus mmapped blocks) are read before the
// machine exists and once every tenant has finished, while all of its
// state is still live. The budget is the 432,000 bytes per tenant measured
// with host, guest and TLB bookkeeping sized to what the run touches,
// departed tenants' storage freed, PEBS buffers reserved at the first
// record and 32-bit guest free lists, plus 25%. Without the last three the
// same host read 560,087; sized by configured capacity (eager host frame
// arrays, 8-byte TLB payloads, 1024-slot leaf caches, hash-node rmaps and
// streaks), 989,836.
TEST(Machine, DenseHostHeapPerTenantWithinBudget) {
#if !defined(__GLIBC__) || __GLIBC__ < 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ < 33) || \
    defined(DEMETER_TEST_SANITIZED)
  GTEST_SKIP() << "needs glibc's own malloc statistics (mallinfo2)";
#else
  constexpr int kTenants = 16;
  constexpr uint64_t kVmBytes = 16 * kMiB;
  constexpr size_t kBudgetPerTenant = size_t{432000} * 5 / 4;
  const auto in_use = [] {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  MachineConfig config;
  config.tiers = {TierSpec::LocalDram(PageCeil(kVmBytes * kTenants / 4)),
                  TierSpec::Pmem(kVmBytes * kTenants * 2)};
  const size_t before = in_use();
  Machine machine(config);
  for (int v = 0; v < kTenants; ++v) {
    VmSetup setup;
    setup.vm.total_memory_bytes = kVmBytes;
    setup.vm.fmem_ratio = 0.2;
    setup.vm.num_vcpus = 2;
    setup.workload = "btree";
    setup.footprint_bytes = PageFloor(kVmBytes * 3 / 4);
    setup.target_transactions = 20000;
    setup.policy = v % 2 == 0 ? PolicyKind::kTpp : PolicyKind::kHTpp;
    setup.policy_period = 15 * kMillisecond;
    if (v % 8 == 7) {
      setup.boot_at = 5 * kMillisecond * static_cast<Nanos>(1 + v % 4);
    }
    setup.depart_on_finish = v % 5 == 4;
    machine.AddVm(setup);
  }
  machine.StartRun();
  while (machine.StepUntil(Machine::kNoHorizon)) {
  }
  const size_t per_tenant = (in_use() - before) / kTenants;
  RecordProperty("heap_bytes_per_tenant", static_cast<int>(per_tenant));
  EXPECT_LE(per_tenant, kBudgetPerTenant) << per_tenant << " bytes per tenant";
  machine.FinishRun();
#endif
}

// Simulator heap under host churn. One 16 MiB, 2-vCPU silo tenant under
// Demeter with the double balloon (a fleet-ha tenant) is killed and
// re-admitted, kCycles times after two warm-up cycles. A killed incarnation
// keeps its Vm object, counters, policy, balloon and workload, and frees
// its TLB arrays, page-table nodes, rmap, allocation FIFOs and PEBS
// buffers, so glibc's in-use heap grows by a fixed residue per cycle: the
// budget is that residue (138,812-139,308 bytes measured) plus 25%. When
// each killed incarnation kept all of its storage, a cycle grew the heap
// by 605,728 bytes.
TEST(Machine, HeapStaysFlatUnderKillAndReadmit) {
#if !defined(__GLIBC__) || __GLIBC__ < 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ < 33) || \
    defined(DEMETER_TEST_SANITIZED)
  GTEST_SKIP() << "needs glibc's own malloc statistics (mallinfo2)";
#else
  constexpr int kCycles = 8;
  constexpr uint64_t kVmBytes = 16 * kMiB;
  constexpr size_t kBudgetPerCycle = size_t{140000} * 5 / 4;
  const auto in_use = [] {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  MachineConfig config;
  config.tiers = {TierSpec::LocalDram(PageCeil(kVmBytes / 2)), TierSpec::Pmem(kVmBytes * 4)};
  VmSetup setup;
  setup.vm.total_memory_bytes = kVmBytes;
  setup.vm.fmem_ratio = 0.2;
  setup.vm.num_vcpus = 2;
  setup.workload = "silo";
  setup.footprint_bytes = PageFloor(kVmBytes * 3 / 4);
  setup.target_transactions = 100000000;
  setup.policy = PolicyKind::kDemeter;
  setup.provision = ProvisionMode::kDemeterBalloon;
  setup.policy_period = 15 * kMillisecond;
  setup.demeter.range.epoch_length = 10 * kMillisecond;
  setup.demeter.sample_period = 97;
  setup.timeline_bucket = 25 * kMillisecond;
  Machine machine(config);
  int live = machine.AddVm(setup);
  machine.StartRun();
  const auto cycle = [&] {
    ASSERT_TRUE(machine.StepUntil(machine.MinActiveClock() + 5 * kMillisecond));
    const Nanos now = machine.MinActiveClock();
    machine.KillVm(live, now);
    live = machine.AdmitVm(setup, now, /*restarted=*/true);
  };
  cycle();
  cycle();
  const size_t before = in_use();
  for (int c = 0; c < kCycles; ++c) {
    cycle();
  }
  const size_t per_cycle = (in_use() - before) / kCycles;
  RecordProperty("heap_bytes_per_cycle", static_cast<int>(per_cycle));
  EXPECT_LE(per_cycle, kBudgetPerCycle) << per_cycle << " bytes per kill and re-admission";
  EXPECT_TRUE(machine.CheckInvariants().ok());
#endif
}

TEST(TablePrinterTest, FormatsNumbers) {
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Fmt(uint64_t{42}), "42");
}

}  // namespace
}  // namespace demeter
