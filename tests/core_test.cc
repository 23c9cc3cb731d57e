#include <gtest/gtest.h>
#include <malloc.h>

#include <memory>
#include <vector>

#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/core/api.h"

namespace demeter {
namespace {

RangeTreeConfig FastConfig() {
  RangeTreeConfig config;
  config.alpha = 2.0;
  config.split_threshold = 15.0;
  config.merge_threshold = 4;
  config.min_range_bytes = kHugePageSize;
  return config;
}

// ---- RangeTree --------------------------------------------------------------

TEST(RangeTree, StartsWithOneLeafPerRegion) {
  RangeTree tree(FastConfig());
  tree.AddRegion(0, 64 * kMiB);
  tree.AddRegion(kGiB, kGiB + 32 * kMiB);
  EXPECT_EQ(tree.leaves().size(), 2u);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(RangeTree, RejectsOverlappingRegions) {
  RangeTree tree(FastConfig());
  tree.AddRegion(0, 64 * kMiB);
  EXPECT_DEATH(tree.AddRegion(32 * kMiB, 128 * kMiB), "overlapping");
}

TEST(RangeTree, SamplesOutsideRegionsIgnored) {
  RangeTree tree(FastConfig());
  tree.AddRegion(kMiB, 2 * kMiB);
  tree.RecordSample(0);
  tree.RecordSample(3 * kMiB);
  EXPECT_EQ(tree.samples_ignored(), 2u);
  EXPECT_EQ(tree.samples_recorded(), 0u);
  tree.RecordSample(kMiB + 5);
  EXPECT_EQ(tree.samples_recorded(), 1u);
}

TEST(RangeTree, HotRangeSplitsDownToGranularityFloor) {
  RangeTree tree(FastConfig());
  tree.AddRegion(0, 64 * kMiB);
  const int vcpus = 4;
  // Hammer a 2 MiB hotspot at offset 10 MiB; everything else cold.
  for (int epoch = 0; epoch < 30; ++epoch) {
    for (int i = 0; i < 2000; ++i) {
      tree.RecordSample(10 * kMiB + static_cast<uint64_t>(i) % kHugePageSize);
    }
    tree.EndEpoch(vcpus);
    ASSERT_TRUE(tree.CheckInvariants()) << "epoch " << epoch;
  }
  // The hottest leaf is small (at or near the floor) and contains the spot.
  const auto ranked = tree.Ranked();
  ASSERT_FALSE(ranked.empty());
  EXPECT_LE(ranked[0].size(), 4 * kHugePageSize);
  EXPECT_LE(ranked[0].start, 10 * kMiB);
  EXPECT_GT(ranked[0].end, 10 * kMiB);
  EXPECT_GT(tree.total_splits(), 3u);
  // No leaf ever splits below 2 MiB.
  for (const auto& leaf : tree.leaves()) {
    EXPECT_GE(leaf.size(), kHugePageSize);
  }
}

TEST(RangeTree, ColdRegionStaysCoarse) {
  RangeTree tree(FastConfig());
  tree.AddRegion(0, kGiB);
  for (int epoch = 0; epoch < 10; ++epoch) {
    tree.RecordSample(5 * kMiB);  // One sample per epoch: insignificant.
    tree.EndEpoch(4);
  }
  EXPECT_EQ(tree.leaves().size(), 1u) << "cold memory remains one large range";
}

TEST(RangeTree, CountsDecayToZero) {
  RangeTree tree(FastConfig());
  tree.AddRegion(0, 4 * kMiB);
  for (int i = 0; i < 100; ++i) {
    tree.RecordSample(kMiB);
  }
  tree.EndEpoch(1);
  EXPECT_GT(tree.leaves()[0].access_count, 0.0);
  for (int epoch = 0; epoch < 8; ++epoch) {
    tree.EndEpoch(1);
  }
  EXPECT_DOUBLE_EQ(tree.leaves()[0].access_count, 0.0);
}

TEST(RangeTree, QuietNeighborsMergeAfterThreshold) {
  RangeTreeConfig config = FastConfig();
  RangeTree tree(config);
  tree.AddRegion(0, 64 * kMiB);
  // Create splits with a moving hotspot, then go silent.
  for (int epoch = 0; epoch < 10; ++epoch) {
    for (int i = 0; i < 1000; ++i) {
      tree.RecordSample((static_cast<uint64_t>(epoch % 3) * 8 + 2) * kMiB);
    }
    tree.EndEpoch(4);
  }
  const size_t peak_leaves = tree.leaves().size();
  ASSERT_GT(peak_leaves, 1u);
  for (int epoch = 0; epoch < 20; ++epoch) {
    tree.EndEpoch(4);
    ASSERT_TRUE(tree.CheckInvariants());
  }
  EXPECT_EQ(tree.leaves().size(), 1u) << "silence collapses the tree";
  EXPECT_GT(tree.total_merges(), 0u);
}

TEST(RangeTree, SplitHalvesCounts) {
  RangeTree tree(FastConfig());
  tree.AddRegion(0, 8 * kMiB);
  for (int i = 0; i < 1000; ++i) {
    tree.RecordSample(kMiB);
  }
  tree.EndEpoch(1);
  ASSERT_EQ(tree.leaves().size(), 2u);
  // Each half got 1000/2 = 500, then decayed by half = 250.
  EXPECT_DOUBLE_EQ(tree.leaves()[0].access_count, 250.0);
  EXPECT_DOUBLE_EQ(tree.leaves()[1].access_count, 250.0);
}

TEST(RangeTree, ExtendRegionCoversGrowth) {
  RangeTree tree(FastConfig());
  tree.AddRegion(0, 4 * kMiB);
  tree.ExtendRegion(0, 16 * kMiB);
  EXPECT_TRUE(tree.CheckInvariants());
  tree.RecordSample(10 * kMiB);
  EXPECT_EQ(tree.samples_recorded(), 1u);
  // Extending to a smaller/equal end is a no-op.
  tree.ExtendRegion(0, 8 * kMiB);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(RangeTree, RankedOrdersByFrequencyDensity) {
  RangeTree tree(FastConfig());
  tree.AddRegion(0, 16 * kMiB);           // Will receive many accesses.
  tree.AddRegion(kGiB, kGiB + 512 * kMiB);  // Same count spread over more pages.
  for (int i = 0; i < 5000; ++i) {
    tree.RecordSample(kMiB);
    tree.RecordSample(kGiB + kMiB);
  }
  auto ranked = tree.Ranked();
  ASSERT_GE(ranked.size(), 2u);
  EXPECT_LT(ranked[0].start, 16 * kMiB) << "denser (smaller) range ranks hotter";
}

TEST(RangeTree, RankTiebreakPrefersNewerRanges) {
  HotRange old_range;
  old_range.start = 0;
  old_range.end = kHugePageSize;
  old_range.access_count = 10.0;
  old_range.created_epoch = 1;
  HotRange new_range = old_range;
  new_range.start = kHugePageSize;
  new_range.end = 2 * kHugePageSize;
  new_range.created_epoch = 7;
  RangeTree tree(FastConfig());
  // Rank via the static path by constructing the vector directly.
  std::vector<HotRange> ranked = {old_range, new_range};
  std::stable_sort(ranked.begin(), ranked.end(), [](const HotRange& a, const HotRange& b) {
    if (a.Frequency() != b.Frequency()) {
      return a.Frequency() > b.Frequency();
    }
    return a.created_epoch > b.created_epoch;
  });
  EXPECT_EQ(ranked[0].created_epoch, 7u);
}

TEST(RangeTree, HotPrefixRespectsFmemBudget) {
  std::vector<HotRange> ranked;
  for (int i = 0; i < 4; ++i) {
    HotRange r;
    r.start = static_cast<uint64_t>(i) * kHugePageSize;
    r.end = r.start + kHugePageSize;  // 512 pages each.
    ranked.push_back(r);
  }
  EXPECT_EQ(RangeTree::HotPrefix(ranked, 512), 1u);
  EXPECT_EQ(RangeTree::HotPrefix(ranked, 1024), 2u);
  EXPECT_EQ(RangeTree::HotPrefix(ranked, 100), 0u);
  EXPECT_EQ(RangeTree::HotPrefix(ranked, 1u << 30), 4u);
}

TEST(RangeTree, LeafCountStaysSmallUnderSkewedLoad) {
  // §3.2.1: "creating fewer than 50 ranges" even for deep refinement.
  RangeTree tree(FastConfig());
  tree.AddRegion(0, 2 * kGiB);
  Rng rng(3);
  for (int epoch = 0; epoch < 60; ++epoch) {
    for (int i = 0; i < 3000; ++i) {
      // 90% of accesses to a 4 MiB hotspot, 10% uniform.
      const uint64_t addr = rng.NextBool(0.9)
                                ? 512 * kMiB + rng.NextBelow(4 * kMiB)
                                : rng.NextBelow(2 * kGiB);
      tree.RecordSample(addr);
    }
    tree.EndEpoch(4);
    ASSERT_TRUE(tree.CheckInvariants());
  }
  EXPECT_LT(tree.leaves().size(), 50u);
  const auto ranked = tree.Ranked();
  EXPECT_LE(ranked[0].start, 512 * kMiB + 4 * kMiB);
  EXPECT_GE(ranked[0].end, 512 * kMiB);
}

TEST(RangeTree, InvariantsFuzz) {
  RangeTree tree(FastConfig());
  tree.AddRegion(0, 256 * kMiB);
  tree.AddRegion(kGiB, kGiB + 256 * kMiB);
  Rng rng(99);
  for (int epoch = 0; epoch < 100; ++epoch) {
    const int samples = static_cast<int>(rng.NextBelow(3000));
    for (int i = 0; i < samples; ++i) {
      const uint64_t region_base = rng.NextBool(0.5) ? 0 : kGiB;
      // Zipf-ish skew inside the region.
      const uint64_t offset = rng.NextZipf(256 * kMiB / 64, 0.9) * 64;
      tree.RecordSample(region_base + offset);
    }
    tree.EndEpoch(1 + static_cast<int>(rng.NextBelow(8)));
    ASSERT_TRUE(tree.CheckInvariants()) << "epoch " << epoch;
  }
}

// ---- BalancedRelocator --------------------------------------------------------

class RelocatorTest : public ::testing::Test {
 protected:
  RelocatorTest()
      : memory_({TierSpec::LocalDram(64 * kMiB), TierSpec::Pmem(256 * kMiB)}),
        hyper_(&memory_, &events_) {}

  Vm& MakeVm(uint64_t total = 16 * kMiB, double ratio = 0.25) {
    VmConfig config;
    config.id = hyper_.num_vms();
    config.total_memory_bytes = total;
    config.fmem_ratio = ratio;
    config.cache_hit_rate = 0.0;
    return hyper_.CreateVm(config);
  }

  HostMemory memory_;
  EventQueue events_;
  Hypervisor hyper_;
};

TEST_F(RelocatorTest, PromotesHotRangeViaSwaps) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t pages = vm.config().total_pages();  // 4096 pages.
  const uint64_t base = proc.HeapAlloc(pages * kPageSize);
  for (uint64_t i = 0; i < pages; ++i) {
    vm.ExecuteAccess(0, proc, base + i * kPageSize, true);
  }
  // First-touch: low vpns in FMEM. Declare a *late* range as hot.
  const uint64_t hot_start = base + 3000 * kPageSize;
  const uint64_t hot_end = hot_start + 512 * kPageSize;
  std::vector<HotRange> ranked;
  HotRange hot;
  hot.start = hot_start;
  hot.end = hot_end;
  hot.access_count = 1000;
  ranked.push_back(hot);
  HotRange cold;
  cold.start = base;
  cold.end = hot_start;
  ranked.push_back(cold);
  HotRange tail;
  tail.start = hot_end;
  tail.end = base + pages * kPageSize;
  ranked.push_back(tail);

  RelocatorConfig config;
  config.max_batch_pages = 600;
  BalancedRelocator relocator(config);
  const uint64_t fmem_before = memory_.UsedPages(kFmemTier);
  auto result = relocator.Relocate(vm, proc, ranked, /*hot_prefix=*/1, /*now=*/0);
  EXPECT_EQ(result.promoted, 512u);
  EXPECT_EQ(result.demoted, 512u);
  EXPECT_EQ(result.swaps, 512u) << "FMEM was full: all promotions are swaps";
  EXPECT_EQ(memory_.UsedPages(kFmemTier), fmem_before) << "balanced: no net allocation";
  // Every hot page now in node 0.
  for (uint64_t i = 0; i < 512; ++i) {
    EXPECT_EQ(vm.NodeOfVpn(proc, PageOf(hot_start) + i), 0);
  }
  EXPECT_GT(result.cost_ns, 0.0);
  EXPECT_GT(result.ptes_scanned, 0u);
}

TEST_F(RelocatorTest, UsesFreeFmemBeforeSwapping) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  // Touch only a small working set that lands entirely in FMEM, then demote
  // it all manually so FMEM has free space and the hot data sits in SMEM.
  const uint64_t base = proc.HeapAlloc(256 * kPageSize);
  for (uint64_t i = 0; i < 256; ++i) {
    vm.ExecuteAccess(0, proc, base + i * kPageSize, false);
  }
  double cost = 0.0;
  for (uint64_t i = 0; i < 256; ++i) {
    ASSERT_TRUE(vm.MovePage(proc, PageOf(base) + i, 1, 0, &cost));
  }
  ASSERT_GT(vm.kernel().node(0).free_pages(), 200u);

  std::vector<HotRange> ranked;
  HotRange hot;
  hot.start = base;
  hot.end = base + 128 * kPageSize;
  hot.access_count = 500;
  ranked.push_back(hot);
  BalancedRelocator relocator;
  auto result = relocator.Relocate(vm, proc, ranked, 1, 0);
  EXPECT_EQ(result.promoted, 128u);
  EXPECT_EQ(result.swaps, 0u) << "free headroom: plain moves, no demotions";
  EXPECT_EQ(result.demoted, 0u);
}

TEST_F(RelocatorTest, EmptyHotPrefixDoesNothing) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  proc.HeapAlloc(kPageSize);
  std::vector<HotRange> ranked;
  BalancedRelocator relocator;
  auto result = relocator.Relocate(vm, proc, ranked, 0, 0);
  EXPECT_EQ(result.promoted, 0u);
  EXPECT_EQ(result.swaps, 0u);
}

TEST_F(RelocatorTest, BatchCapLimitsWork) {
  Vm& vm = MakeVm();
  GuestProcess& proc = vm.kernel().CreateProcess();
  const uint64_t pages = vm.config().total_pages();
  const uint64_t base = proc.HeapAlloc(pages * kPageSize);
  for (uint64_t i = 0; i < pages; ++i) {
    vm.ExecuteAccess(0, proc, base + i * kPageSize, false);
  }
  std::vector<HotRange> ranked;
  HotRange hot;
  hot.start = base + 2048 * kPageSize;  // In SMEM.
  hot.end = base + 4096 * kPageSize;
  hot.access_count = 1000;
  ranked.push_back(hot);
  HotRange cold;
  cold.start = base;
  cold.end = base + 2048 * kPageSize;
  ranked.push_back(cold);
  RelocatorConfig config;
  config.max_batch_pages = 64;
  BalancedRelocator relocator(config);
  auto result = relocator.Relocate(vm, proc, ranked, 1, 0);
  EXPECT_LE(result.promoted, 64u);
}

// ---- DemeterPolicy end to end -------------------------------------------------

TEST(DemeterPolicy, ConvergesHotSetIntoFmem) {
  HostMemory memory({TierSpec::LocalDram(64 * kMiB), TierSpec::Pmem(256 * kMiB)});
  EventQueue events;
  Hypervisor hyper(&memory, &events);
  VmConfig config;
  config.total_memory_bytes = 32 * kMiB;
  config.fmem_ratio = 0.25;
  config.cache_hit_rate = 0.0;
  config.num_vcpus = 2;
  config.pebs.sample_period = 97;  // Dense sampling for a short test.
  Vm& vm = hyper.CreateVm(config);
  GuestProcess& proc = vm.kernel().CreateProcess();

  const uint64_t pages = vm.config().total_pages();  // 8192.
  const uint64_t base = proc.HeapAlloc(pages * kPageSize);
  // Fill all pages cold-first so the hot set starts in SMEM.
  for (uint64_t i = 0; i < pages; ++i) {
    vm.ExecuteAccess(0, proc, base + i * kPageSize, true);
  }

  DemeterConfig dconfig;
  dconfig.sample_period = 97;
  dconfig.range.epoch_length = 10 * kMillisecond;
  dconfig.relocator.max_batch_pages = 1024;
  DemeterPolicy policy(dconfig);
  policy.Attach(vm, proc, /*start=*/static_cast<Nanos>(vm.vcpu(0).clock_ns));

  // Hot set: the LAST eighth of the heap (in SMEM after first touch).
  const uint64_t hot_base = base + (pages * 7 / 8) * kPageSize;
  const uint64_t hot_pages = pages / 8;
  Rng rng(5);
  for (int round = 0; round < 80; ++round) {
    for (int i = 0; i < 3000; ++i) {
      const uint64_t addr = hot_base + rng.NextBelow(hot_pages) * kPageSize;
      const auto r = vm.ExecuteAccess(0, proc, addr, false);
      vm.vcpu(0).clock_ns += r.ns;
    }
    // Periodic context switch drains PEBS; then run due epochs.
    vm.vcpu(0).clock_ns += vm.OnContextSwitch(0, vm.vcpu(0).now());
    events.RunUntil(vm.vcpu(0).now());
  }

  EXPECT_GE(policy.epochs_run(), 5u);
  EXPECT_GT(policy.total_promoted(), hot_pages / 2) << "hot set largely promoted";
  // Most of the hot set should now be FMEM-resident.
  uint64_t in_fmem = 0;
  for (uint64_t i = 0; i < hot_pages; ++i) {
    if (vm.NodeOfVpn(proc, PageOf(hot_base) + i) == 0) {
      ++in_fmem;
    }
  }
  EXPECT_GT(in_fmem, hot_pages * 6 / 10);
  EXPECT_TRUE(policy.tree().CheckInvariants());
  EXPECT_GT(vm.mgmt_account().Total(), 0u);
  // Guest-delegated: no full EPT flushes during steady-state management.
  EXPECT_EQ(vm.AggregateTlbStats().full_flushes, 0u);
}

// Bytes the allocator has handed out, including chunks it mmapped.
size_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

bool SanitizerOwnsTheHeap() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#endif
#endif
  return false;
}

// Attach allocates only what the run uses: the sample queue has no storage
// until samples arrive, so eight attached VMs cost well under the 1 MiB a
// preallocated 65,536-slot ring would cost each.
TEST(DemeterPolicy, AttachAllocatesNoSampleStorageUpFront) {
  if (SanitizerOwnsTheHeap()) {
    GTEST_SKIP() << "sanitizer allocators make mallinfo2 meaningless";
  }
  HostMemory memory({TierSpec::LocalDram(64 * kMiB), TierSpec::Pmem(256 * kMiB)});
  EventQueue events;
  Hypervisor hyper(&memory, &events);
  constexpr int kVms = 8;
  std::vector<GuestProcess*> procs;
  std::vector<std::unique_ptr<DemeterPolicy>> policies;
  for (int v = 0; v < kVms; ++v) {
    VmConfig config;
    config.id = v;
    config.total_memory_bytes = 8 * kMiB;
    config.num_vcpus = 2;
    Vm& vm = hyper.CreateVm(config);
    GuestProcess& proc = vm.kernel().CreateProcess();
    proc.HeapAlloc(4 * kMiB);
    procs.push_back(&proc);
    policies.push_back(std::make_unique<DemeterPolicy>());
  }
  const size_t before = HeapInUse();
  for (int v = 0; v < kVms; ++v) {
    policies[static_cast<size_t>(v)]->Attach(hyper.vm(v), *procs[static_cast<size_t>(v)], 0);
  }
  const int64_t grown = static_cast<int64_t>(HeapInUse()) - static_cast<int64_t>(before);
  EXPECT_LT(grown, static_cast<int64_t>(kMiB))
      << "attaching " << kVms << " VMs allocated " << grown << " bytes";
}

TEST(DemeterPolicy, RequiresEptFriendlyPebsUnderLazyBacking) {
  HostMemory memory({TierSpec::LocalDram(8 * kMiB), TierSpec::Pmem(32 * kMiB)});
  EventQueue events;
  Hypervisor hyper(&memory, &events);
  VmConfig config;
  config.total_memory_bytes = 4 * kMiB;
  config.pebs.ept_friendly = false;  // Pre-v5 PMU.
  config.lazily_backed = true;
  Vm& vm = hyper.CreateVm(config);
  GuestProcess& proc = vm.kernel().CreateProcess();
  DemeterPolicy policy;
  EXPECT_DEATH(policy.Attach(vm, proc, 0), "EPT-friendly");
}

}  // namespace
}  // namespace demeter
