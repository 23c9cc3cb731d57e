#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "src/base/units.h"
#include "src/fault/invariant_checker.h"
#include "src/hyper/hypervisor.h"
#include "src/mem/host_memory.h"
#include "src/sim/event_queue.h"
#include "src/tmm/damon.h"
#include "src/tmm/htpp.h"
#include "src/tmm/memtis.h"
#include "src/tmm/nomad.h"
#include "src/tmm/policy_util.h"
#include "src/tmm/static_policy.h"
#include "src/tmm/tpp.h"

namespace demeter {
namespace {

class TmmTest : public ::testing::Test {
 protected:
  TmmTest()
      : memory_({TierSpec::LocalDram(64 * kMiB), TierSpec::Pmem(256 * kMiB)}),
        hyper_(&memory_, &events_) {}

  Vm& MakeVm() {
    VmConfig config;
    config.id = hyper_.num_vms();
    config.total_memory_bytes = 16 * kMiB;
    config.fmem_ratio = 0.25;
    config.cache_hit_rate = 0.0;
    config.num_vcpus = 2;
    return hyper_.CreateVm(config);
  }

  // Touches all pages of a freshly allocated heap region, returns base.
  uint64_t FillHeap(Vm& vm, GuestProcess& proc, uint64_t pages) {
    const uint64_t base = proc.HeapAlloc(pages * kPageSize);
    for (uint64_t i = 0; i < pages; ++i) {
      vm.ExecuteAccess(0, proc, base + i * kPageSize, true);
    }
    return base;
  }

  // Drives `rounds` of: access the hot region `reps` times, advance time,
  // run due policy events.
  void DriveHot(Vm& vm, GuestProcess& proc, uint64_t hot_base, uint64_t hot_pages, int rounds,
                int reps = 4) {
    for (int r = 0; r < rounds; ++r) {
      for (int rep = 0; rep < reps; ++rep) {
        for (uint64_t i = 0; i < hot_pages; ++i) {
          const auto res = vm.ExecuteAccess(0, proc, hot_base + i * kPageSize, false);
          vm.vcpu(0).clock_ns += res.ns + 500;  // Pace out virtual time.
        }
      }
      vm.vcpu(0).clock_ns += 30 * kMillisecond;
      events_.RunUntil(vm.vcpu(0).now());
    }
  }

  HostMemory memory_;
  EventQueue events_;
  Hypervisor hyper_;
};

TEST_F(TmmTest, PolicyUtilTrackedRanges) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  proc.HeapAlloc(8 * kPageSize);
  proc.MmapAlloc(4 * kPageSize);
  auto ranges = TrackedPageRanges(proc);
  ASSERT_EQ(ranges.size(), 2u);
}

TEST_F(TmmTest, DemoteForHeadroomMovesOldestPages) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t base = FillHeap(vm, proc, 1024);  // FMEM holds 1024 pages.
  ASSERT_EQ(vm.kernel().node(0).free_pages(), 0u);
  double cost = 0.0;
  EXPECT_EQ(DemoteForHeadroom(vm, 10, 0, &cost), 10u);
  EXPECT_EQ(vm.kernel().node(0).free_pages(), 10u);
  EXPECT_GT(cost, 0.0);
  // The first touched (oldest) pages were demoted.
  EXPECT_EQ(vm.NodeOfVpn(proc, PageOf(base)), 1);
}

TEST_F(TmmTest, StaticPolicyDoesNothing) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  StaticPolicy policy;
  policy.Attach(vm, proc, 0);
  EXPECT_TRUE(events_.empty());
  EXPECT_STREQ(policy.name(), "static");
}

TEST_F(TmmTest, TppPromotesRepeatedlyAccessedSmemPages) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t total = vm.config().total_pages() * 7 / 8;
  const uint64_t base = FillHeap(vm, proc, total);
  // Hot: 128 pages near the end (SMEM after first touch).
  const uint64_t hot_base = base + (total - 256) * kPageSize;
  ASSERT_EQ(vm.NodeOfVpn(proc, PageOf(hot_base)), 1);

  TppPolicy policy;
  policy.Attach(vm, proc, vm.vcpu(0).now());
  DriveHot(vm, proc, hot_base, 128, 50);

  EXPECT_GT(policy.scans_run(), 5u);
  EXPECT_GT(policy.total_promoted(), 64u);
  EXPECT_EQ(vm.NodeOfVpn(proc, PageOf(hot_base)), 0) << "hot page promoted to FMEM";
  // Guest-side: single flushes only.
  EXPECT_EQ(vm.AggregateTlbStats().full_flushes, 0u);
  EXPECT_GT(vm.AggregateTlbStats().single_flushes, 0u);
  EXPECT_GT(vm.mgmt_account().ForStage(TmmStage::kTracking), 0u);
  EXPECT_GT(vm.mgmt_account().ForStage(TmmStage::kMigration), 0u);
}

TEST_F(TmmTest, HTppPromotesViaEptMigration) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t total = vm.config().total_pages() * 7 / 8;
  const uint64_t base = FillHeap(vm, proc, total);
  const uint64_t hot_base = base + (total - 256) * kPageSize;

  HTppPolicy policy;
  policy.Attach(vm, proc, vm.vcpu(0).now());
  DriveHot(vm, proc, hot_base, 128, 50);

  EXPECT_GT(policy.scans_run(), 5u);
  EXPECT_GT(policy.total_promoted(), 32u);
  // Guest mapping unchanged, but the backing frame moved to the DRAM tier.
  const PageNum gpa = proc.gpt().Lookup(PageOf(hot_base)).target;
  EXPECT_EQ(vm.kernel().NodeOfGpa(gpa), 1) << "guest still thinks it is SMEM";
  const FrameId frame = vm.ept().Lookup(gpa).target;
  EXPECT_EQ(memory_.TierOf(frame), kFmemTier) << "host moved it under the covers";
  // Hypervisor-based: full flushes, many of them.
  EXPECT_GT(vm.AggregateTlbStats().full_flushes, 10u);
}

TEST_F(TmmTest, MemtisSamplesAndPromotes) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t total = vm.config().total_pages() * 7 / 8;
  const uint64_t base = FillHeap(vm, proc, total);
  const uint64_t hot_base = base + (total - 256) * kPageSize;

  MemtisConfig config;
  config.sample_period = 19;  // Dense for a short test.
  config.classify_period = 100 * kMillisecond;
  config.hot_count_threshold = 1.0;
  MemtisPolicy policy(config);
  policy.Attach(vm, proc, vm.vcpu(0).now());
  DriveHot(vm, proc, hot_base, 128, 50);

  EXPECT_GT(policy.samples_processed(), 500u);
  EXPECT_GT(policy.total_promoted(), 32u);
  EXPECT_EQ(vm.NodeOfVpn(proc, PageOf(hot_base)), 0);
  EXPECT_GT(vm.mgmt_account().ForStage(TmmStage::kTracking), 0u)
      << "dedicated polling thread burns CPU";
}

TEST_F(TmmTest, NomadTransactionsAbortAndRetry) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t total = vm.config().total_pages() * 7 / 8;
  const uint64_t base = FillHeap(vm, proc, total);
  const uint64_t hot_base = base + (total - 256) * kPageSize;

  NomadConfig config;
  config.dirty_abort_probability = 0.5;  // Force visible abort traffic.
  NomadPolicy policy(config);
  policy.Attach(vm, proc, vm.vcpu(0).now());
  DriveHot(vm, proc, hot_base, 128, 50);

  EXPECT_GT(policy.total_promoted(), 16u);
  EXPECT_GT(policy.transaction_aborts(), 0u) << "shadow copies race writers";
}

TEST_F(TmmTest, NomadMigrationCostExceedsTpp) {
  // Same scenario under both policies: Nomad's shadow copies and aborts must
  // cost more migration CPU per promoted page.
  double tpp_cost_per_page;
  double nomad_cost_per_page;
  {
    Vm& vm = MakeVm();
    GuestProcess& proc = vm.kernel().CreateProcess();
    const uint64_t total = vm.config().total_pages() * 7 / 8;
    const uint64_t base = FillHeap(vm, proc, total);
    TppPolicy policy;
    policy.Attach(vm, proc, vm.vcpu(0).now());
    DriveHot(vm, proc, base + (total - 256) * kPageSize, 128, 25);
    tpp_cost_per_page = static_cast<double>(vm.mgmt_account().ForStage(TmmStage::kMigration)) /
                        std::max<uint64_t>(1, policy.total_promoted() + policy.total_demoted());
  }
  {
    Vm& vm = MakeVm();
    GuestProcess& proc = vm.kernel().CreateProcess();
    const uint64_t total = vm.config().total_pages() * 7 / 8;
    const uint64_t base = FillHeap(vm, proc, total);
    NomadPolicy policy;
    policy.Attach(vm, proc, vm.vcpu(0).now());
    DriveHot(vm, proc, base + (total - 256) * kPageSize, 128, 25);
    nomad_cost_per_page = static_cast<double>(vm.mgmt_account().ForStage(TmmStage::kMigration)) /
                          std::max<uint64_t>(1, policy.total_promoted() + policy.total_demoted());
  }
  EXPECT_GT(nomad_cost_per_page, tpp_cost_per_page);
}

// A streak is one byte per page: a page seen hot on the slow node for 256
// scans in a row wraps back to 0. Here FMEM stays dry through scan 255, so
// every promotion of the hot page fails and its streak keeps counting; with
// room from scan 256 on, the wrapped streak (0, then 1) holds the page back
// until scan 258, where it reaches the threshold of 2 again.
TEST_F(TmmTest, TppStreakWrapsAt256) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t total = vm.config().total_pages();
  const uint64_t base = FillHeap(vm, proc, total);  // Both guest nodes full.
  ASSERT_EQ(vm.kernel().node(0).free_pages(), 0u);
  ASSERT_EQ(vm.kernel().node(1).free_pages(), 0u);
  const uint64_t hot = base + (total - 1) * kPageSize;
  ASSERT_EQ(vm.NodeOfVpn(proc, PageOf(hot)), 1);

  TppConfig config;
  config.scan_period = kMillisecond;
  TppPolicy policy(config);
  const Nanos start = vm.vcpu(0).now();
  policy.Attach(vm, proc, start);
  const auto scan = [&](uint64_t k) {  // Touch the hot page, then run scan k.
    vm.ExecuteAccess(0, proc, hot, /*is_write=*/false);
    events_.RunUntil(start + static_cast<Nanos>(k) * kMillisecond);
    ASSERT_EQ(policy.scans_run(), k);
  };
  for (uint64_t k = 1; k <= 255; ++k) {
    scan(k);
  }
  EXPECT_EQ(vm.NodeOfVpn(proc, PageOf(hot)), 1) << "FMEM was dry";
  const PageNum fmem_vpn = PageOf(base);
  ASSERT_EQ(vm.NodeOfVpn(proc, fmem_vpn), 0);
  vm.kernel().DiscardPage(proc, fmem_vpn, proc.gpt().Lookup(fmem_vpn).target);
  scan(256);
  EXPECT_EQ(vm.NodeOfVpn(proc, PageOf(hot)), 1) << "streak 256 wraps to 0";
  scan(257);
  EXPECT_EQ(vm.NodeOfVpn(proc, PageOf(hot)), 1) << "streak 1";
  scan(258);
  EXPECT_EQ(vm.NodeOfVpn(proc, PageOf(hot)), 0) << "streak 2 promotes";
  EXPECT_EQ(policy.total_promoted(), 1u);
}

// TPP-H's streaks are keyed by gPA and wrap the same way. Host FMEM is taken
// before the VM faults, so every page lands in SMEM and no promotion can
// make room by demoting; one frame comes back before scan 256.
TEST_F(TmmTest, HTppStreakWrapsAt256) {
  std::vector<FrameId> held;
  while (const std::optional<FrameId> frame = memory_.Allocate(kFmemTier)) {
    held.push_back(*frame);
  }
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t hot = FillHeap(vm, proc, 512);
  const PageNum gpa = proc.gpt().Lookup(PageOf(hot)).target;
  const auto hot_tier = [&] { return memory_.TierOf(vm.ept().Lookup(gpa).target); };
  ASSERT_EQ(hot_tier(), kSmemTier);

  HTppConfig config;
  config.scan_period = kMillisecond;
  HTppPolicy policy(config);
  const Nanos start = vm.vcpu(0).now();
  policy.Attach(vm, proc, start);
  const auto scan = [&](uint64_t k) {
    vm.ExecuteAccess(0, proc, hot, /*is_write=*/false);
    events_.RunUntil(start + static_cast<Nanos>(k) * kMillisecond);
    ASSERT_EQ(policy.scans_run(), k);
  };
  for (uint64_t k = 1; k <= 255; ++k) {
    scan(k);
  }
  EXPECT_EQ(hot_tier(), kSmemTier) << "host FMEM was full";
  memory_.Free(held.back());
  scan(256);
  EXPECT_EQ(hot_tier(), kSmemTier) << "streak 256 wraps to 0";
  scan(257);
  EXPECT_EQ(hot_tier(), kSmemTier) << "streak 1";
  scan(258);
  EXPECT_EQ(hot_tier(), kFmemTier) << "streak 2 promotes";
  EXPECT_EQ(policy.total_promoted(), 1u);
}

TEST_F(TmmTest, StoppedPoliciesCeaseWork) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  FillHeap(vm, proc, 512);
  TppPolicy policy;
  policy.Attach(vm, proc, 0);
  policy.Stop();
  vm.vcpu(0).clock_ns += static_cast<double>(10 * kSecond);
  events_.RunUntil(vm.vcpu(0).now());
  EXPECT_LE(policy.scans_run(), 1u);
}

// ----------------------------------------------------- Three-tier placement

// A host whose DRAM tiers are smaller than the VM, so first-touch spill
// continues the chain into the far swap tier and every policy has both
// swap-backed pages to promote and far headroom to demote into.
class ThreeTierTmmTest : public ::testing::Test {
 protected:
  ThreeTierTmmTest()
      : memory_({TierSpec::LocalDram(4 * kMiB), TierSpec::Pmem(6 * kMiB),
                 TierSpec::Zswap(64 * kMiB)}),
        hyper_(&memory_, &events_) {
    hyper_.EnableSwap(SwapDeviceConfig{});
  }

  Vm& MakeVm() {
    VmConfig config;
    config.id = hyper_.num_vms();
    config.total_memory_bytes = 16 * kMiB;
    config.fmem_ratio = 0.25;
    config.cache_hit_rate = 0.0;
    config.num_vcpus = 2;
    return hyper_.CreateVm(config);
  }

  uint64_t FillHeap(Vm& vm, GuestProcess& proc, uint64_t pages) {
    const uint64_t base = proc.HeapAlloc(pages * kPageSize);
    for (uint64_t i = 0; i < pages; ++i) {
      vm.ExecuteAccess(0, proc, base + i * kPageSize, true);
    }
    return base;
  }

  void DriveHot(Vm& vm, GuestProcess& proc, uint64_t hot_base, uint64_t hot_pages, int rounds,
                int reps = 4) {
    for (int r = 0; r < rounds; ++r) {
      for (int rep = 0; rep < reps; ++rep) {
        for (uint64_t i = 0; i < hot_pages; ++i) {
          const auto res = vm.ExecuteAccess(0, proc, hot_base + i * kPageSize, false);
          vm.vcpu(0).clock_ns += res.ns + 500;
        }
      }
      vm.vcpu(0).clock_ns += 30 * kMillisecond;
      events_.RunUntil(vm.vcpu(0).now());
    }
  }

  HostMemory memory_;
  EventQueue events_;
  Hypervisor hyper_;
};

TEST_F(ThreeTierTmmTest, FarDemoteForHeadroomMovesColdSmemPagesOnly) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  FillHeap(vm, proc, 2048);  // 1024 FMEM + 1024 SMEM, every EPT A bit set.
  ASSERT_EQ(memory_.UsedPages(kSwapTier), 0u);

  // Every page was just touched, so the first (arming) call only clears
  // A bits and must refuse to demote.
  double cost = 0.0;
  EXPECT_EQ(FarDemoteForHeadroom(vm, 64, 0, &cost), 0u);

  // Re-touch a handful of hot pages; the next call picks only cold SMEM
  // victims — never the hot ones, never FMEM.
  const uint64_t base = proc.space().vmas()[0].start;
  const uint64_t hot = base + 1500 * kPageSize;  // SMEM-backed region.
  for (uint64_t i = 0; i < 16; ++i) {
    vm.ExecuteAccess(0, proc, hot + i * kPageSize, false);
  }
  const uint64_t moved = FarDemoteForHeadroom(vm, 64, 0, &cost);
  EXPECT_EQ(moved, 64u);
  EXPECT_GT(cost, 0.0);
  EXPECT_EQ(memory_.UsedPages(kSwapTier), 64u);
  EXPECT_EQ(hyper_.swap()->ActiveSlots(), 64u) << "every far demotion opened a slot";
  for (uint64_t i = 0; i < 16; ++i) {
    EXPECT_FALSE(SwapBacked(vm, proc, PageOf(hot) + i)) << "hot page " << i << " demoted";
  }
  EXPECT_TRUE(InvariantChecker::Check(hyper_, {}).ok());
}

TEST_F(ThreeTierTmmTest, SwapBackedSeesOnlyFarPages) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t base = FillHeap(vm, proc, 3584);  // Overflows into swap.
  ASSERT_GT(memory_.UsedPages(kSwapTier), 0u);
  EXPECT_FALSE(SwapBacked(vm, proc, PageOf(base))) << "first touch landed in FMEM";
  EXPECT_TRUE(SwapBacked(vm, proc, PageOf(base) + 3583)) << "last touch spilled far";
  EXPECT_FALSE(SwapBacked(vm, proc, PageOf(base) + 4000)) << "unmapped page is not far";
}

TEST_F(ThreeTierTmmTest, TppFarDemotesWhenSmemIsTight) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t total = 3584;
  const uint64_t base = FillHeap(vm, proc, total);
  const uint64_t hot_base = base + (total - 256) * kPageSize;
  ASSERT_TRUE(SwapBacked(vm, proc, PageOf(hot_base)));

  TppPolicy policy;
  policy.Attach(vm, proc, vm.vcpu(0).now());
  DriveHot(vm, proc, hot_base, 128, 50);

  // The chain ran in both directions: cold SMEM pages continued down to
  // swap (SMEM has no free headroom), and the hot far pages came back up.
  EXPECT_GT(policy.total_far_demoted(), 0u) << "SMEM -> swap leg never ran";
  EXPECT_GT(policy.total_promoted(), 0u);
  EXPECT_FALSE(SwapBacked(vm, proc, PageOf(hot_base))) << "hot page still far";
  EXPECT_TRUE(InvariantChecker::Check(hyper_, {}).ok());
}

// Every delegated policy must promote a hot swap-backed page back up the
// chain, and leave the cross-layer state (rmap, slots, TLBs) consistent.
TEST_F(ThreeTierTmmTest, EveryPolicyPromotesHotSwapBackedPages) {
  struct Entry {
    const char* name;
    std::unique_ptr<TmmPolicy> policy;
  };
  MemtisConfig memtis_config;
  memtis_config.sample_period = 19;
  memtis_config.classify_period = 100 * kMillisecond;
  memtis_config.hot_count_threshold = 1.0;
  Entry entries[] = {
      {"tpp", std::make_unique<TppPolicy>()},
      {"htpp", std::make_unique<HTppPolicy>()},
      {"memtis", std::make_unique<MemtisPolicy>(memtis_config)},
      {"nomad", std::make_unique<NomadPolicy>()},
      {"damon", std::make_unique<DamonPolicy>()},
  };
  for (Entry& entry : entries) {
    Vm& vm = MakeVm();
    GuestProcess& proc = vm.kernel().CreateProcess();
    const uint64_t total = 3584;
    const uint64_t base = FillHeap(vm, proc, total);
    const uint64_t hot_base = base + (total - 128) * kPageSize;
    ASSERT_TRUE(SwapBacked(vm, proc, PageOf(hot_base))) << entry.name;

    entry.policy->Attach(vm, proc, vm.vcpu(0).now());
    DriveHot(vm, proc, hot_base, 64, 50);
    entry.policy->Stop();

    EXPECT_FALSE(SwapBacked(vm, proc, PageOf(hot_base)))
        << entry.name << ": hot page still swap-backed after 50 scan rounds";
    // The guest mapping survived the round trip: the rmap still names the
    // page, and no TLB anywhere went stale.
    const PageNum gpa = proc.gpt().Lookup(PageOf(hot_base)).target;
    const std::optional<RmapEntry> rmap = vm.kernel().Rmap(gpa);
    ASSERT_TRUE(rmap.has_value()) << entry.name;
    EXPECT_EQ(rmap->vpn, PageOf(hot_base)) << entry.name;
    EXPECT_TRUE(InvariantChecker::Check(hyper_, {}).ok()) << entry.name;

    // Each policy gets the host to itself: the finished VM departs, which
    // must return every frame and release every swap slot it held.
    hyper_.ReclaimVm(vm);
    EXPECT_EQ(hyper_.swap()->ActiveSlotsForVm(vm.id()), 0u)
        << entry.name << ": departure leaked swap slots";
    EXPECT_TRUE(InvariantChecker::Check(hyper_, {}).ok()) << entry.name << " post-departure";
  }
}

}  // namespace
}  // namespace demeter
