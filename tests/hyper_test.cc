#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/units.h"
#include "src/fault/invariant_checker.h"
#include "src/harness/machine.h"
#include "src/hyper/hypervisor.h"
#include "src/hyper/overcommit.h"
#include "src/hyper/vm.h"
#include "src/mem/host_memory.h"
#include "src/sim/event_queue.h"

namespace demeter {
namespace {

class HyperTest : public ::testing::Test {
 protected:
  HyperTest()
      : memory_({TierSpec::LocalDram(32 * kMiB), TierSpec::Pmem(128 * kMiB)}),
        hyper_(&memory_, &events_) {}

  Vm& MakeVm(uint64_t total_bytes = 8 * kMiB, double fmem_ratio = 0.25,
             double cache_hit_rate = 0.0) {
    VmConfig config;
    config.id = hyper_.num_vms();
    config.num_vcpus = 2;
    config.total_memory_bytes = total_bytes;
    config.fmem_ratio = fmem_ratio;
    config.cache_hit_rate = cache_hit_rate;
    return hyper_.CreateVm(config);
  }

  HostMemory memory_;
  EventQueue events_;
  Hypervisor hyper_;
};

TEST_F(HyperTest, VmNodeSizing) {
  Vm& vm = MakeVm(8 * kMiB, 0.25);
  EXPECT_EQ(vm.kernel().node(0).present_pages(), 512u);   // 2 MiB FMEM.
  EXPECT_EQ(vm.kernel().node(1).present_pages(), 1536u);  // 6 MiB SMEM.
  // Node spans are each 100% of VM memory.
  EXPECT_EQ(vm.kernel().node(0).span_pages(), 2048u);
  EXPECT_EQ(vm.kernel().node(1).span_pages(), 2048u);
}

TEST_F(HyperTest, FirstAccessFaultsThenHits) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t addr = proc.HeapAlloc(kPageSize);

  AccessResult first = vm.ExecuteAccess(0, proc, addr, false);
  EXPECT_EQ(vm.stats().guest_faults, 1u);
  EXPECT_EQ(vm.stats().ept_faults, 1u);
  EXPECT_GT(first.ns, 10000.0) << "first touch pays both faults";
  EXPECT_EQ(first.tier, kFmemTier) << "fault allocates FMEM first";

  AccessResult second = vm.ExecuteAccess(0, proc, addr, false);
  EXPECT_EQ(vm.stats().guest_faults, 1u);
  EXPECT_LT(second.ns, 100.0) << "TLB hit plus DRAM latency";
}

TEST_F(HyperTest, SpillToSmemWhenFmemNodeFull) {
  Vm& vm = MakeVm(8 * kMiB, 0.25);
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t base = proc.HeapAlloc(2048 * kPageSize);
  // Touch every page: 512 land in FMEM, the rest in SMEM.
  for (uint64_t i = 0; i < 2048; ++i) {
    vm.ExecuteAccess(0, proc, base + i * kPageSize, true);
  }
  EXPECT_EQ(vm.kernel().node(0).free_pages(), 0u);
  EXPECT_EQ(vm.stats().fmem_accesses, 512u);
  EXPECT_EQ(vm.stats().smem_accesses, 1536u);
}

TEST_F(HyperTest, EptPopulatesMatchingTier) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t addr = proc.HeapAlloc(kPageSize);
  vm.ExecuteAccess(0, proc, addr, false);
  const PageNum gpa = proc.gpt().Lookup(PageOf(addr)).target;
  EXPECT_EQ(hyper_.NodeOfGpa(vm, gpa), 0);
  const FrameId frame = vm.ept().Lookup(gpa).target;
  EXPECT_EQ(memory_.TierOf(frame), kFmemTier);
}

TEST_F(HyperTest, LazyBacking) {
  Vm& vm = MakeVm();
  EXPECT_EQ(memory_.UsedPages(kFmemTier), 0u) << "no eager backing";
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t base = proc.HeapAlloc(10 * kPageSize);
  for (int i = 0; i < 3; ++i) {
    vm.ExecuteAccess(0, proc, base + static_cast<uint64_t>(i) * kPageSize, false);
  }
  EXPECT_EQ(memory_.UsedPages(kFmemTier), 3u) << "only touched pages backed";
}

TEST_F(HyperTest, MovePagePreservesContentsAndChangesTier) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t addr = proc.HeapAlloc(kPageSize);
  vm.ExecuteAccess(0, proc, addr, true);
  const PageNum vpn = PageOf(addr);
  const PageNum old_gpa = proc.gpt().Lookup(vpn).target;
  const FrameId old_frame = vm.ept().Lookup(old_gpa).target;
  memory_.WriteToken(old_frame, 0xfeed);

  double cost = 0.0;
  ASSERT_TRUE(vm.MovePage(proc, vpn, /*dst_node=*/1, /*now=*/0, &cost));
  EXPECT_GT(cost, 0.0);
  EXPECT_EQ(vm.NodeOfVpn(proc, vpn), 1);
  const PageNum new_gpa = proc.gpt().Lookup(vpn).target;
  EXPECT_NE(new_gpa, old_gpa);
  const FrameId new_frame = vm.ept().Lookup(new_gpa).target;
  EXPECT_EQ(memory_.TierOf(new_frame), kSmemTier);
  EXPECT_EQ(memory_.ReadToken(new_frame), 0xfeedu) << "contents must move";
  EXPECT_EQ(vm.stats().pages_demoted, 1u);
  // Old backing was released to the host.
  EXPECT_FALSE(vm.ept().Lookup(old_gpa).present);
}

TEST_F(HyperTest, MovePageFlushesGvaOnAllVcpus) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t addr = proc.HeapAlloc(kPageSize);
  vm.ExecuteAccess(0, proc, addr, false);
  vm.ExecuteAccess(1, proc, addr, false);
  const auto before = vm.AggregateTlbStats();
  double cost = 0.0;
  ASSERT_TRUE(vm.MovePage(proc, PageOf(addr), 1, 0, &cost));
  const auto after = vm.AggregateTlbStats();
  EXPECT_EQ(after.single_flushes - before.single_flushes, 2u) << "one invlpg per vCPU";
  EXPECT_EQ(after.full_flushes, before.full_flushes);
  // Post-move access resolves to the new tier.
  AccessResult r = vm.ExecuteAccess(0, proc, addr, false);
  EXPECT_EQ(r.tier, kSmemTier);
}

TEST_F(HyperTest, MovePageFailsWhenDstNodeFull) {
  Vm& vm = MakeVm(8 * kMiB, 0.25);
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t base = proc.HeapAlloc(2048 * kPageSize);
  for (uint64_t i = 0; i < 2048; ++i) {
    vm.ExecuteAccess(0, proc, base + i * kPageSize, false);
  }
  // Both nodes fully allocated: no free page in node 1.
  double cost = 0.0;
  EXPECT_FALSE(vm.MovePage(proc, PageOf(base), 1, 0, &cost));
}

TEST_F(HyperTest, SwapPagesExchangesTiersAndContents) {
  Vm& vm = MakeVm(8 * kMiB, 0.25);
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t base = proc.HeapAlloc(2048 * kPageSize);
  for (uint64_t i = 0; i < 2048; ++i) {
    vm.ExecuteAccess(0, proc, base + i * kPageSize, false);
  }
  const PageNum vpn_fast = PageOf(base);                      // First touch: FMEM.
  const PageNum vpn_slow = PageOf(base + 1000 * kPageSize);   // Later: SMEM.
  ASSERT_EQ(vm.NodeOfVpn(proc, vpn_fast), 0);
  ASSERT_EQ(vm.NodeOfVpn(proc, vpn_slow), 1);

  const FrameId frame_fast = vm.ept().Lookup(proc.gpt().Lookup(vpn_fast).target).target;
  const FrameId frame_slow = vm.ept().Lookup(proc.gpt().Lookup(vpn_slow).target).target;
  memory_.WriteToken(frame_fast, 0xaaaa);
  memory_.WriteToken(frame_slow, 0xbbbb);

  const uint64_t fmem_used_before = memory_.UsedPages(kFmemTier);
  double cost = 0.0;
  ASSERT_TRUE(vm.SwapPages(proc, vpn_slow, proc, vpn_fast, 0, &cost));

  EXPECT_EQ(vm.NodeOfVpn(proc, vpn_slow), 0) << "hot page promoted";
  EXPECT_EQ(vm.NodeOfVpn(proc, vpn_fast), 1) << "cold page demoted";
  // No allocation: host usage unchanged (the paper's balanced property).
  EXPECT_EQ(memory_.UsedPages(kFmemTier), fmem_used_before);
  // Contents followed their virtual pages.
  const FrameId new_frame_slow = vm.ept().Lookup(proc.gpt().Lookup(vpn_slow).target).target;
  const FrameId new_frame_fast = vm.ept().Lookup(proc.gpt().Lookup(vpn_fast).target).target;
  EXPECT_EQ(memory_.ReadToken(new_frame_slow), 0xbbbbu);
  EXPECT_EQ(memory_.ReadToken(new_frame_fast), 0xaaaau);
  EXPECT_EQ(vm.stats().pages_promoted, 1u);
  EXPECT_EQ(vm.stats().pages_demoted, 1u);
}

TEST_F(HyperTest, SwapUnmappedFails) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t addr = proc.HeapAlloc(2 * kPageSize);
  vm.ExecuteAccess(0, proc, addr, false);
  double cost = 0.0;
  EXPECT_FALSE(vm.SwapPages(proc, PageOf(addr), proc, PageOf(addr) + 1, 0, &cost));
}

TEST_F(HyperTest, HostMigrationUsesFullFlush) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t addr = proc.HeapAlloc(kPageSize);
  vm.ExecuteAccess(0, proc, addr, true);
  const PageNum gpa = proc.gpt().Lookup(PageOf(addr)).target;
  const FrameId old_frame = vm.ept().Lookup(gpa).target;
  memory_.WriteToken(old_frame, 0x1234);

  double cost = 0.0;
  ASSERT_TRUE(hyper_.MigrateGpa(vm, gpa, kSmemTier, 0, &cost));
  vm.FullFlushAll();  // Hypervisor-side designs batch-flush with invept.
  EXPECT_EQ(vm.AggregateTlbStats().full_flushes, 2u);

  const FrameId new_frame = vm.ept().Lookup(gpa).target;
  EXPECT_EQ(memory_.TierOf(new_frame), kSmemTier);
  EXPECT_EQ(memory_.ReadToken(new_frame), 0x1234u);
  // Guest view is unchanged: same gPA.
  EXPECT_EQ(proc.gpt().Lookup(PageOf(addr)).target, gpa);
  // Access now lands in SMEM even though the guest did nothing.
  AccessResult r = vm.ExecuteAccess(0, proc, addr, false);
  EXPECT_EQ(r.tier, kSmemTier);
}

TEST_F(HyperTest, MigrateGpaRejectsSameTierAndUnbacked) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t addr = proc.HeapAlloc(kPageSize);
  vm.ExecuteAccess(0, proc, addr, false);
  const PageNum gpa = proc.gpt().Lookup(PageOf(addr)).target;
  double cost = 0.0;
  EXPECT_FALSE(hyper_.MigrateGpa(vm, gpa, kFmemTier, 0, &cost)) << "already in FMEM";
  EXPECT_FALSE(hyper_.MigrateGpa(vm, gpa + 1, kSmemTier, 0, &cost)) << "unbacked";
}

TEST_F(HyperTest, EptScanSeesAccessedBitsAndFullFlushes) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t base = proc.HeapAlloc(10 * kPageSize);
  for (int i = 0; i < 10; ++i) {
    vm.ExecuteAccess(0, proc, base + static_cast<uint64_t>(i) * kPageSize, false);
  }
  int accessed = 0;
  hyper_.ScanEptAccessedAndFlush(vm, [&](PageNum, FrameId, bool a) {
    if (a) {
      ++accessed;
    }
  });
  EXPECT_EQ(accessed, 10);
  EXPECT_EQ(vm.AggregateTlbStats().full_flushes, 2u) << "invept on every vCPU";

  // Without re-access, a second scan sees nothing.
  accessed = 0;
  hyper_.ScanEptAccessedAndFlush(vm, [&](PageNum, FrameId, bool a) {
    if (a) {
      ++accessed;
    }
  });
  EXPECT_EQ(accessed, 0);

  // Re-access (after the full flush forces a re-walk) re-arms the bits.
  vm.ExecuteAccess(0, proc, base, false);
  accessed = 0;
  hyper_.ScanEptAccessedAndFlush(vm, [&](PageNum, FrameId, bool a) {
    if (a) {
      ++accessed;
    }
  });
  EXPECT_EQ(accessed, 1);
}

TEST_F(HyperTest, WithoutFullFlushAbitsStayDark) {
  // The core of §2.3.1: TLB hits skip the page-table walk, so A bits are
  // not re-set unless the translations are flushed.
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t addr = proc.HeapAlloc(kPageSize);
  vm.ExecuteAccess(0, proc, addr, false);
  const PageNum gpa = proc.gpt().Lookup(PageOf(addr)).target;
  // Clear A bit without flushing the TLB.
  vm.ept().TestAndClearAccessed(gpa);
  vm.ExecuteAccess(0, proc, addr, false);  // TLB hit.
  EXPECT_FALSE(vm.ept().Lookup(gpa).was_accessed) << "TLB hit leaves A bit clear";
}

TEST_F(HyperTest, CacheHitsBypassMemory) {
  Vm& vm = MakeVm(8 * kMiB, 0.25, /*cache_hit_rate=*/1.0);
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t addr = proc.HeapAlloc(kPageSize);
  AccessResult r = vm.ExecuteAccess(0, proc, addr, false);
  EXPECT_TRUE(r.cache_hit);
  EXPECT_DOUBLE_EQ(r.ns, kL2HitLatencyNs);
  EXPECT_EQ(vm.stats().guest_faults, 0u) << "cache hit never reaches the MMU model";
}

TEST_F(HyperTest, ContextSwitchChargesAndCounts) {
  Vm& vm = MakeVm();
  const double cost = vm.OnContextSwitch(0, 1000);
  EXPECT_GT(cost, 0.0);
  EXPECT_EQ(vm.stats().context_switches, 1u);
}

TEST_F(HyperTest, PebsIsolationAcrossVms) {
  // §2.3.2: samples generated by one VM land only in that VM's buffers.
  VmConfig config_a;
  config_a.id = 0;
  config_a.total_memory_bytes = 4 * kMiB;
  config_a.cache_hit_rate = 0.0;
  config_a.pebs.sample_period = 1;
  VmConfig config_b = config_a;
  config_b.id = 1;
  Vm& vm_a = hyper_.CreateVm(config_a);
  Vm& vm_b = hyper_.CreateVm(config_b);
  vm_a.vcpu(0).pebs->set_enabled(true);
  vm_b.vcpu(0).pebs->set_enabled(true);

  GuestProcess& proc_a = vm_a.kernel().CreateProcess();
  const uint64_t addr = proc_a.HeapAlloc(kPageSize);
  vm_a.ExecuteAccess(0, proc_a, addr, false);
  vm_a.ExecuteAccess(0, proc_a, addr, false);

  EXPECT_GT(vm_a.vcpu(0).pebs->stats().records_written, 0u);
  EXPECT_EQ(vm_b.vcpu(0).pebs->stats().records_written, 0u)
      << "guest-private buffers must not leak across VMs";
}

TEST_F(HyperTest, HostTierFallbackUnderPressure) {
  // A VM whose FMEM node exceeds the host FMEM tier spills to SMEM frames.
  VmConfig config;
  config.id = 0;
  config.total_memory_bytes = 64 * kMiB;
  config.fmem_ratio = 1.0;  // Wants everything in FMEM; host has 32 MiB.
  config.cache_hit_rate = 0.0;
  Vm& vm = hyper_.CreateVm(config);
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t pages = 12 * kMiB / kPageSize;
  const uint64_t base = proc.HeapAlloc(pages * kPageSize);
  for (uint64_t i = 0; i < pages; ++i) {
    vm.ExecuteAccess(0, proc, base + i * kPageSize, false);
  }
  Vm& vm2 = MakeVm(64 * kMiB, 1.0);
  GuestProcess& proc2 = vm2.kernel().CreateProcess();
  const uint64_t pages2 = 24 * kMiB / kPageSize;
  const uint64_t base2 = proc2.HeapAlloc(pages2 * kPageSize);
  for (uint64_t i = 0; i < pages2; ++i) {
    vm2.ExecuteAccess(0, proc2, base2 + i * kPageSize, false);
  }
  EXPECT_GT(hyper_.stats().host_tier_fallbacks, 0u);
  EXPECT_EQ(vm.stats().accesses + vm2.stats().accesses, pages + pages2);
}

TEST(HyperFallbackAccounting, FallbacksCountOnlySuccessfulSpills) {
  // Regression: a spill attempt that found every tier dry used to bump
  // host_tier_fallbacks anyway, so the counter overstated off-tier
  // placements under total exhaustion.
  HostMemory memory({TierSpec::LocalDram(4 * kPageSize), TierSpec::Pmem(4 * kPageSize)});
  EventQueue events;
  Hypervisor hyper(&memory, &events);
  VmConfig config;
  config.id = 0;
  config.total_memory_bytes = 16 * kPageSize;
  Vm& vm = hyper.CreateVm(config);
  // FMEM-node gPAs 0..3 fill the DRAM tier exactly: no fallback.
  for (PageNum gpa = 0; gpa < 4; ++gpa) {
    EXPECT_NE(hyper.PopulateEpt(vm, gpa), kInvalidFrame);
  }
  EXPECT_EQ(hyper.stats().host_tier_fallbacks, 0u);
  // Four more FMEM-node gPAs spill to pmem: one fallback per placement.
  for (PageNum gpa = 4; gpa < 8; ++gpa) {
    EXPECT_NE(hyper.PopulateEpt(vm, gpa), kInvalidFrame);
  }
  EXPECT_EQ(hyper.stats().host_tier_fallbacks, 4u);
  // Both tiers dry: host OOM must NOT count as a fallback.
  EXPECT_EQ(hyper.PopulateEpt(vm, 8), kInvalidFrame);
  EXPECT_EQ(hyper.PopulateEpt(vm, 9), kInvalidFrame);
  EXPECT_EQ(hyper.stats().host_tier_fallbacks, 4u);
  EXPECT_EQ(hyper.stats().ept_populates, 8u);
}

// ------------------------------------------------- Overcommit arbitration

// Builds a host whose 4 MiB FMEM tier (1024 frames) is fully backed by
// VM 0's node-0 pages, so every Arbitrate pass sees free_frac == 0 — well
// under the low watermark — and the fair-share divisor is the only thing
// deciding whether VM 0 looks over budget.
struct OvercommitRig {
  OvercommitRig()
      : memory({TierSpec::LocalDram(4 * kMiB), TierSpec::Pmem(64 * kMiB)}),
        hyper(&memory, &events) {}

  Vm& AddVm(uint64_t touch_pages) {
    VmConfig config;
    config.id = hyper.num_vms();
    config.num_vcpus = 1;
    config.total_memory_bytes = 8 * kMiB;
    config.fmem_ratio = 0.5;   // node 0 holds 1024 present pages.
    config.cache_hit_rate = 0;  // Every touch faults: residency == touches.
    Vm& vm = hyper.CreateVm(config);
    if (touch_pages > 0) {
      GuestProcess& proc = vm.kernel().CreateProcess();
      const uint64_t base = proc.HeapAlloc(touch_pages * kPageSize);
      for (uint64_t i = 0; i < touch_pages; ++i) {
        vm.ExecuteAccess(0, proc, base + i * kPageSize, true);
      }
    }
    return vm;
  }

  HostMemory memory;
  EventQueue events;
  Hypervisor hyper;
};

TEST(OvercommitArbitration, UnbootedVmsDoNotDiluteFairShare) {
  // Regression: the divisor counted every non-departed VM, so two
  // not-yet-booted tenants (zero pages held) shrank VM 0's fair share from
  // the full tier to a third of it and the scheduler squeezed a VM that was
  // using exactly what it was entitled to.
  OvercommitRig rig;
  rig.AddVm(1024);  // VM 0 backs the whole tier.
  rig.AddVm(0);     // Deferred boots: created, not booted, holding nothing.
  rig.AddVm(0);
  OvercommitScheduler scheduler(&rig.hyper, OvercommitConfig{});
  std::vector<int> squeezed;
  scheduler.set_spill_request([&](int vm, int64_t delta, Nanos) {
    if (delta > 0) {
      squeezed.push_back(vm);
    }
    return true;
  });

  // Old behaviour (no resident predicate): fair = 1024/3, VM 0 is "over".
  scheduler.Arbitrate(0);
  ASSERT_EQ(squeezed.size(), 1u);
  EXPECT_EQ(squeezed[0], 0);
  EXPECT_EQ(scheduler.stats().spill_requests, 1u);

  // Fixed behaviour: only VM 0 is resident, fair = the whole tier, and a
  // VM at exactly its fair share must not be squeezed.
  scheduler.set_resident([](int vm) { return vm == 0; });
  scheduler.Arbitrate(kMillisecond);
  EXPECT_EQ(squeezed.size(), 1u) << "no new spill once the divisor is honest";
  EXPECT_EQ(scheduler.stats().no_victim, 1u);
}

TEST(OvercommitArbitration, DepartureMidRunRestoresFairShare) {
  // The divisor must be recomputed over live VMs every tick: after VM 1
  // departs, VM 0's fair share doubles and the pressure on it stops, even
  // though the tier is still below the low watermark.
  OvercommitRig rig;
  rig.AddVm(600);  // VM 0: over a half-tier share, under a full-tier one.
  rig.AddVm(424);  // VM 1 takes the remaining frames.
  OvercommitScheduler scheduler(&rig.hyper, OvercommitConfig{});
  bool vm1_departed = false;
  scheduler.set_resident([&](int vm) { return vm == 0 || !vm1_departed; });
  uint64_t asked = 0;
  scheduler.set_spill_request([&](int vm, int64_t delta, Nanos) {
    EXPECT_EQ(vm, 0) << "only the over-share VM may be squeezed";
    asked += static_cast<uint64_t>(delta);
    return true;
  });

  scheduler.Arbitrate(0);  // fair = 512: VM 0 is 88 pages over.
  EXPECT_EQ(scheduler.stats().spill_requests, 1u);
  EXPECT_EQ(asked, 88u);

  vm1_departed = true;  // Mid-run churn.
  scheduler.Arbitrate(kMillisecond);  // fair = 1024: VM 0 is under.
  EXPECT_EQ(scheduler.stats().spill_requests, 1u);
  EXPECT_EQ(scheduler.stats().no_victim, 1u);
}

// ----------------------------------------------------- VM lifecycle churn

MachineConfig LifecycleHost(int vms) {
  MachineConfig config;
  const uint64_t per_vm = 32 * kMiB;
  config.tiers = {TierSpec::LocalDram(10 * kMiB * static_cast<uint64_t>(vms)),
                  TierSpec::Pmem(3 * per_vm * static_cast<uint64_t>(vms))};
  return config;
}

VmSetup LifecycleVm(PolicyKind policy) {
  VmSetup setup;
  setup.vm.total_memory_bytes = 32 * kMiB;
  setup.vm.fmem_ratio = 0.2;
  setup.vm.num_vcpus = 2;
  setup.workload = "gups";
  setup.footprint_bytes = 24 * kMiB;
  setup.target_transactions = 150000;
  setup.policy = policy;
  setup.provision = ProvisionMode::kDemeterBalloon;
  setup.policy_period = 15 * kMillisecond;
  setup.demeter.range.epoch_length = 2 * kMillisecond;
  setup.demeter.sample_period = 97;
  return setup;
}

TEST(MachineLifecycleTest, DepartingVmLeavesNoResidue) {
  // vm0 finishes early and departs mid-run while vm1 keeps executing; every
  // page, mapping, and TLB entry of the departed VM must be gone.
  Machine machine(LifecycleHost(2));
  VmSetup early = LifecycleVm(PolicyKind::kDemeter);
  early.target_transactions = 60000;
  early.depart_on_finish = true;
  machine.AddVm(early);
  machine.AddVm(LifecycleVm(PolicyKind::kDemeter));
  machine.Run();

  Vm& departed = machine.vm(0);
  EXPECT_TRUE(departed.departed());
  EXPECT_EQ(departed.kernel().mapped_pages(), 0u) << "rmap entries leaked";
  EXPECT_EQ(departed.ept().mapped_count(), 0u) << "EPT mappings leaked";
  for (int n = 0; n < 2; ++n) {
    EXPECT_EQ(departed.kernel().node(n).used_pages(), 0u)
        << "node " << n << " still counts pages";
  }
  uint64_t live_tlb = 0;
  for (int c = 0; c < departed.num_vcpus(); ++c) {
    departed.vcpu(c).tlb.ForEachValid([&](PageNum, const auto&) { ++live_tlb; });
  }
  EXPECT_EQ(live_tlb, 0u) << "stale translations survived departure";

  // The survivor ran to completion and the cross-layer audit is clean.
  EXPECT_GE(machine.result(1).transactions, 150000u);
  const InvariantReport report = machine.CheckInvariants();
  EXPECT_TRUE(report.ok()) << report.Join();

  // Lifecycle accounting: one departure, with real pages reclaimed.
  const MetricSnapshot m = machine.SnapshotMetrics();
  EXPECT_EQ(m.CounterValue("vm0/lifecycle/departures"), 1u);
  EXPECT_GT(m.CounterValue("vm0/lifecycle/reclaimed_ept_pages"), 0u);
  EXPECT_EQ(m.CounterValue("vm1/lifecycle/departures"), 0u);
}

TEST(MachineLifecycleTest, DeferredVmBootsMidRunAndFinishes) {
  Machine machine(LifecycleHost(2));
  machine.AddVm(LifecycleVm(PolicyKind::kDemeter));
  VmSetup late = LifecycleVm(PolicyKind::kDemeter);
  late.boot_at = 20 * kMillisecond;
  late.target_transactions = 80000;
  machine.AddVm(late);
  machine.Run();

  EXPECT_GE(machine.result(0).transactions, 150000u);
  EXPECT_GE(machine.result(1).transactions, 80000u);
  const MetricSnapshot m = machine.SnapshotMetrics();
  EXPECT_EQ(m.CounterValue("vm1/lifecycle/boots"), 1u);
  EXPECT_GE(m.CounterValue("vm1/lifecycle/boot_ns"), 20 * kMillisecond);
  const InvariantReport report = machine.CheckInvariants();
  EXPECT_TRUE(report.ok()) << report.Join();
}

TEST(MachineLifecycleTest, SkippedReclaimIsCaughtByChecker) {
  // A teardown path that marks the VM gone without reclaiming must trip the
  // departed-emptiness audit — this is the guard against silent leaks.
  Machine machine(LifecycleHost(1));
  machine.AddVm(LifecycleVm(PolicyKind::kStatic));
  machine.Run();
  ASSERT_TRUE(machine.CheckInvariants().ok());
  machine.vm(0).set_departed(true);  // Deliberately skip ReclaimVm.
  const InvariantReport report = machine.CheckInvariants();
  ASSERT_FALSE(report.ok());
  bool mentions_departed = false;
  for (const std::string& v : report.violations) {
    if (v.find("departed") != std::string::npos) {
      mentions_departed = true;
    }
  }
  EXPECT_TRUE(mentions_departed) << report.Join();
}

// ----------------------------------------------------- Three-tier placement

class ThreeTierTest : public ::testing::Test {
 protected:
  ThreeTierTest()
      : memory_({TierSpec::LocalDram(8 * kPageSize), TierSpec::Pmem(16 * kPageSize),
                 TierSpec::Zswap(64 * kPageSize)}),
        hyper_(&memory_, &events_) {
    hyper_.EnableSwap(SwapDeviceConfig{});
  }

  Vm& MakeVm(uint64_t total_bytes = 64 * kPageSize) {
    VmConfig config;
    config.id = hyper_.num_vms();
    config.num_vcpus = 2;
    config.total_memory_bytes = total_bytes;
    config.fmem_ratio = 0.25;
    config.cache_hit_rate = 0.0;
    return hyper_.CreateVm(config);
  }

  HostMemory memory_;
  EventQueue events_;
  Hypervisor hyper_;
};

TEST_F(ThreeTierTest, DemotionChainRetainsFlagsAndSlot) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t addr = proc.HeapAlloc(kPageSize);
  vm.ExecuteAccess(0, proc, addr, /*is_write=*/true);  // Sets A and D.
  const PageNum vpn = PageOf(addr);
  const PageNum gpa = proc.gpt().Lookup(vpn).target;
  const FrameId fmem_frame = vm.ept().Lookup(gpa).target;
  ASSERT_EQ(memory_.TierOf(fmem_frame), kFmemTier);
  memory_.WriteToken(fmem_frame, 0xcafe);

  // Full chain: FMEM -> SMEM -> swap, each hop host-side with the
  // caller-owned flush the MigrateGpa contract requires.
  double cost = 0.0;
  ASSERT_TRUE(hyper_.MigrateGpa(vm, gpa, kSmemTier, 0, &cost));
  ASSERT_TRUE(hyper_.MigrateGpa(vm, gpa, kSwapTier, 0, &cost));
  vm.FullFlushAll();
  const FrameId swap_frame = vm.ept().Lookup(gpa).target;
  EXPECT_EQ(memory_.TierOf(swap_frame), kSwapTier);
  EXPECT_TRUE(hyper_.swap()->HasSlot(swap_frame));
  EXPECT_EQ(hyper_.swap()->SlotOwner(swap_frame), vm.id());
  EXPECT_EQ(memory_.ReadToken(swap_frame), 0xcafeu) << "contents travel the chain";

  // Promote back to FMEM (level skip): slot released, W/A/D flags and the
  // guest mapping (same gpa, same rmap entry) intact end to end.
  ASSERT_TRUE(hyper_.MigrateGpa(vm, gpa, kFmemTier, 0, &cost));
  vm.FullFlushAll();
  const auto ept = vm.ept().Lookup(gpa);
  EXPECT_EQ(memory_.TierOf(ept.target), kFmemTier);
  EXPECT_TRUE(ept.was_accessed) << "A flag must survive the round trip";
  EXPECT_TRUE(ept.was_dirty) << "D flag must survive the round trip";
  EXPECT_EQ(hyper_.swap()->ActiveSlots(), 0u) << "slot released on swap-in";
  EXPECT_EQ(memory_.UsedPages(kSwapTier), 0u);
  EXPECT_EQ(proc.gpt().Lookup(vpn).target, gpa) << "guest view never changed";
  const std::optional<RmapEntry> rmap = vm.kernel().Rmap(gpa);
  ASSERT_TRUE(rmap.has_value());
  EXPECT_EQ(rmap->vpn, vpn);
  EXPECT_TRUE(InvariantChecker::Check(hyper_, {}).ok());
}

TEST_F(ThreeTierTest, AccessToSwapPageSwapsInToFmem) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t addr = proc.HeapAlloc(kPageSize);
  vm.ExecuteAccess(0, proc, addr, true);
  const PageNum gpa = proc.gpt().Lookup(PageOf(addr)).target;
  double cost = 0.0;
  ASSERT_TRUE(hyper_.MigrateGpa(vm, gpa, kSwapTier, 0, &cost));
  vm.FullFlushAll();

  // FMEM has headroom: the major fault promotes straight to FMEM,
  // skipping SMEM (level-skip swap-in).
  const AccessResult r = vm.ExecuteAccess(0, proc, addr, false);
  EXPECT_EQ(r.tier, kFmemTier);
  EXPECT_EQ(vm.stats().swap_ins, 1u);
  EXPECT_EQ(vm.stats().swap_accesses, 0u) << "served after promotion, not in place";
  EXPECT_EQ(hyper_.swap()->ActiveSlots(), 0u);
  EXPECT_GT(r.ns, 1000.0) << "the access pays the device/staging cost";
  EXPECT_TRUE(InvariantChecker::Check(hyper_, {}).ok());
}

TEST_F(ThreeTierTest, SwapInFallsBackToSmemWhenFmemFull) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  // Fill the tiny FMEM tier (8 frames) plus one SMEM page.
  const uint64_t base = proc.HeapAlloc(10 * kPageSize);
  for (uint64_t i = 0; i < 9; ++i) {
    vm.ExecuteAccess(0, proc, base + i * kPageSize, false);
  }
  ASSERT_EQ(memory_.FreePages(kFmemTier), 0u);

  // Swap out page 0 (frees its FMEM frame), then refill FMEM with a fresh
  // touch so the level-skip target is dry again.
  const PageNum gpa = proc.gpt().Lookup(PageOf(base)).target;
  double cost = 0.0;
  ASSERT_TRUE(hyper_.MigrateGpa(vm, gpa, kSwapTier, 0, &cost));
  vm.FullFlushAll();
  vm.ExecuteAccess(0, proc, base + 9 * kPageSize, false);
  ASSERT_EQ(memory_.FreePages(kFmemTier), 0u);

  const AccessResult r = vm.ExecuteAccess(0, proc, base, false);
  EXPECT_EQ(r.tier, kSmemTier) << "no FMEM headroom: swap-in lands in SMEM";
  EXPECT_EQ(vm.stats().swap_ins, 1u);
  EXPECT_TRUE(InvariantChecker::Check(hyper_, {}).ok());
}

TEST_F(ThreeTierTest, TlbHitSwapInMigratesTheFaultingPage) {
  // Regression: a TLB hit short-circuits the 2D walk, so the translation
  // result's gpa_page field is unset (0). The swap-in path used to pass it
  // to SwapInGpa verbatim, migrating whatever page happened to be gpa 0 —
  // and leaving every TLB entry for gpa 0's vpn stale (no flush), since
  // SwapInGpa's caller only flushes the vpn it thinks it promoted.
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t base = proc.HeapAlloc(25 * kPageSize);
  // Exhaust FMEM and SMEM with the first 24 pages.
  for (uint64_t i = 0; i < 24; ++i) {
    vm.ExecuteAccess(0, proc, base + i * kPageSize, i == 0);
  }
  ASSERT_EQ(memory_.FreePages(kFmemTier), 0u);
  ASSERT_EQ(memory_.FreePages(kSmemTier), 0u);
  // Whichever page owns gpa 0 is the one the buggy path used to migrate.
  PageNum zero_vpn = ~static_cast<PageNum>(0);
  for (uint64_t i = 0; i < 24; ++i) {
    if (proc.gpt().Lookup(PageOf(base) + i).target == 0) {
      zero_vpn = PageOf(base) + i;
    }
  }
  ASSERT_NE(zero_vpn, ~static_cast<PageNum>(0)) << "gpa 0 unmapped; regression scenario void";
  const FrameId zero_frame = vm.ept().Lookup(0).target;
  // Page 24 can only be backed far; its swap-in attempt finds no room, so
  // the access runs in place and the TLB caches the swap-tier frame.
  const uint64_t addr = base + 24 * kPageSize;
  vm.ExecuteAccess(0, proc, addr, false);
  const PageNum gpa = proc.gpt().Lookup(PageOf(addr)).target;
  ASSERT_EQ(memory_.TierOf(vm.ept().Lookup(gpa).target), kSwapTier);
  ASSERT_EQ(vm.stats().swap_accesses, 1u) << "accessed in place, TLB caches far frame";

  // Free one FMEM frame by swapping out an FMEM-backed page that is NOT
  // gpa 0, then re-access: the TLB hit on the far frame must swap in THE
  // FAULTING page, not gpa 0.
  PageNum victim_vpn = ~static_cast<PageNum>(0);
  for (uint64_t i = 0; i < 24 && victim_vpn == ~static_cast<PageNum>(0); ++i) {
    const PageNum cand_gpa = proc.gpt().Lookup(PageOf(base) + i).target;
    if (cand_gpa != 0 && memory_.TierOf(vm.ept().Lookup(cand_gpa).target) == kFmemTier) {
      victim_vpn = PageOf(base) + i;
    }
  }
  ASSERT_NE(victim_vpn, ~static_cast<PageNum>(0));
  double cost = 0.0;
  ASSERT_TRUE(
      hyper_.MigrateGpa(vm, proc.gpt().Lookup(victim_vpn).target, kSwapTier, 0, &cost));
  vm.FlushGvaAll(victim_vpn);
  const AccessResult r = vm.ExecuteAccess(0, proc, addr, false);
  EXPECT_EQ(r.tier, kFmemTier) << "swap-in promoted the faulting page";
  EXPECT_EQ(memory_.TierOf(vm.ept().Lookup(gpa).target), kFmemTier);
  // gpa 0's backing never moved, and no TLB entry anywhere went stale.
  EXPECT_EQ(vm.ept().Lookup(0).target, zero_frame);
  EXPECT_TRUE(InvariantChecker::Check(hyper_, {}).ok()) << "no stale TLB entries";
}

TEST_F(ThreeTierTest, UnbackReleasesSlotWithoutRead) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t addr = proc.HeapAlloc(kPageSize);
  vm.ExecuteAccess(0, proc, addr, false);
  const PageNum gpa = proc.gpt().Lookup(PageOf(addr)).target;
  double cost = 0.0;
  ASSERT_TRUE(hyper_.MigrateGpa(vm, gpa, kSwapTier, 0, &cost));
  vm.FullFlushAll();
  ASSERT_EQ(hyper_.swap()->ActiveSlots(), 1u);
  // The page dies under its slot (balloon reclaim / VM teardown path):
  // no device read, the slot just drops.
  hyper_.UnbackGpa(vm, gpa, /*flush=*/true);
  EXPECT_EQ(hyper_.swap()->ActiveSlots(), 0u);
  EXPECT_EQ(memory_.UsedPages(kSwapTier), 0u);
}

}  // namespace
}  // namespace demeter
