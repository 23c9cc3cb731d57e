// Property-based invariants, swept over (policy x workload) combinations
// and over range-tree parameter grids with parameterized gtest.
//
// The central property: NO tiered-memory-management policy may ever lose,
// duplicate, or corrupt a page. We stamp every backed frame with a token
// derived from its owning gVA, run the policy hard enough to force
// migrations, and verify that afterwards every mapped page still carries
// its own data — plus structural invariants (rmap consistency, node
// accounting, host-frame conservation).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "src/base/rng.h"
#include "src/core/api.h"
#include "src/harness/machine.h"
#include "src/workloads/workload.h"

namespace demeter {
namespace {

// ---- Policy x workload integrity sweep ---------------------------------------

using PolicyWorkload = std::tuple<std::string, std::string>;

class PolicyIntegrityTest : public ::testing::TestWithParam<PolicyWorkload> {};

TEST_P(PolicyIntegrityTest, NoPageLostOrCorrupted) {
  const auto& [policy_name, workload_name] = GetParam();

  HostMemory memory({TierSpec::LocalDram(10 * kMiB), TierSpec::Pmem(64 * kMiB)});
  EventQueue events;
  Hypervisor hyper(&memory, &events);
  VmConfig config;
  config.total_memory_bytes = 16 * kMiB;
  config.fmem_ratio = 0.25;
  config.num_vcpus = 2;
  config.cache_hit_rate = 0.0;  // Every init touch must reach the MMU (stamping relies on it).
  Vm& vm = hyper.CreateVm(config);
  GuestProcess& proc = vm.kernel().CreateProcess();

  auto workload = MakeWorkload(workload_name, 12 * kMiB);
  Rng rng(42);
  workload->Setup(proc, rng);

  // Init pass + stamp every backed frame with a token derived from its gVA.
  for (const Vma& vma : proc.space().vmas()) {
    if (!vma.tracked || vma.size() == 0) {
      continue;
    }
    for (uint64_t addr = vma.start; addr < vma.end; addr += kPageSize) {
      vm.ExecuteAccess(0, proc, addr, true);
    }
  }
  uint64_t stamped = 0;
  proc.gpt().ForEachPresent(0, PageTable::kMaxPage, [&](PageNum vpn, uint64_t gpa, bool, bool) {
    const auto ept = vm.ept().Lookup(gpa);
    ASSERT_TRUE(ept.present) << "mapped page must be backed after init";
    memory.WriteToken(ept.target, vpn * 1000003ULL);
    ++stamped;
  });
  ASSERT_GT(stamped, 1000u);

  // Attach the policy and drive the workload through migrations.
  DemeterConfig dconfig;
  dconfig.range.epoch_length = 10 * kMillisecond;
  dconfig.range.split_threshold = 4.0;
  dconfig.sample_period = 97;
  auto policy = MakePolicy(PolicyKindFromName(policy_name), dconfig, 10 * kMillisecond);
  policy->Attach(vm, proc, vm.vcpu(0).now());

  std::vector<AccessOp> ops;
  for (int round = 0; round < 60; ++round) {
    ops.clear();
    workload->NextBatch(round % 2, 2000, rng, &ops);
    for (const AccessOp& op : ops) {
      const AccessResult r = vm.ExecuteAccess(round % 2, proc, op.gva, op.is_write);
      vm.vcpu(round % 2).clock_ns += r.ns;
    }
    Vcpu& vcpu = vm.vcpu(round % 2);
    vcpu.clock_ns += vm.OnContextSwitch(round % 2, vcpu.now());
    vcpu.clock_ns += static_cast<double>(5 * kMillisecond);
    vm.vcpu((round + 1) % 2).clock_ns = vcpu.clock_ns;
    events.RunUntil(vcpu.now());
  }
  policy->Stop();

  // Property 1: every originally mapped page still holds its own data.
  uint64_t verified = 0;
  std::set<uint64_t> gpas;
  std::set<FrameId> frames;
  proc.gpt().ForEachPresent(0, PageTable::kMaxPage, [&](PageNum vpn, uint64_t gpa, bool, bool) {
    EXPECT_TRUE(gpas.insert(gpa).second) << "gPA double-mapped";
    const auto ept = vm.ept().Lookup(gpa);
    ASSERT_TRUE(ept.present);
    EXPECT_TRUE(frames.insert(ept.target).second) << "host frame double-mapped";
    EXPECT_EQ(memory.ReadToken(ept.target), vpn * 1000003ULL)
        << "page contents corrupted for vpn " << vpn;
    ++verified;
  });
  EXPECT_EQ(verified, stamped) << "pages lost or appeared";

  // Property 2: rmap agrees with the page table.
  proc.gpt().ForEachPresent(0, PageTable::kMaxPage, [&](PageNum vpn, uint64_t gpa, bool, bool) {
    const std::optional<RmapEntry> rmap = vm.kernel().Rmap(gpa);
    ASSERT_TRUE(rmap.has_value());
    EXPECT_EQ(rmap->vpn, vpn);
    EXPECT_EQ(rmap->pid, proc.pid());
  });
  EXPECT_EQ(vm.kernel().mapped_pages(), stamped);

  // Property 3: node accounting balances.
  for (int n = 0; n < 2; ++n) {
    const NumaNode& node = vm.kernel().node(n);
    EXPECT_EQ(node.used_pages() + node.free_pages(), node.present_pages());
  }
  // All used guest pages are rmapped.
  EXPECT_EQ(vm.kernel().node(0).used_pages() + vm.kernel().node(1).used_pages(), stamped);

  // Property 4: host frame conservation — every backed EPT entry uses a
  // distinct frame, and host used counts match exactly.
  EXPECT_EQ(frames.size(), memory.UsedPages(kFmemTier) + memory.UsedPages(kSmemTier));
}

INSTANTIATE_TEST_SUITE_P(
    AllPoliciesAndWorkloads, PolicyIntegrityTest,
    ::testing::Combine(::testing::Values("static", "demeter", "tpp", "tpp-h", "memtis", "nomad",
                                         "damon"),
                       ::testing::Values("gups", "silo", "xsbench", "graph500")),
    [](const ::testing::TestParamInfo<PolicyWorkload>& info) {
      std::string name = std::get<0>(info.param) + "_" + std::get<1>(info.param);
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

// ---- Range tree parameter grid -------------------------------------------------

using TreeParams = std::tuple<double, double, uint64_t>;  // alpha, tau, granularity.

class RangeTreeParamTest : public ::testing::TestWithParam<TreeParams> {};

TEST_P(RangeTreeParamTest, InvariantsHoldUnderSkewedLoad) {
  const auto& [alpha, tau, granularity] = GetParam();
  RangeTreeConfig config;
  config.alpha = alpha;
  config.split_threshold = tau;
  config.min_range_bytes = granularity;
  RangeTree tree(config);
  tree.AddRegion(0, 512 * kMiB);
  tree.AddRegion(kGiB, kGiB + 128 * kMiB);

  Rng rng(alpha * 1000 + tau);
  for (int epoch = 0; epoch < 50; ++epoch) {
    const int samples = 500 + static_cast<int>(rng.NextBelow(2000));
    for (int i = 0; i < samples; ++i) {
      const uint64_t addr = rng.NextBool(0.8)
                                ? 100 * kMiB + rng.NextBelow(8 * kMiB)  // Hot spot.
                                : rng.NextBelow(512 * kMiB);            // Background.
      tree.RecordSample(addr);
    }
    tree.EndEpoch(4);
    ASSERT_TRUE(tree.CheckInvariants()) << "epoch " << epoch;
    for (const HotRange& leaf : tree.leaves()) {
      // No leaf below the floor unless it is a region remnant smaller than
      // the floor itself.
      if (leaf.size() < granularity) {
        EXPECT_EQ(leaf.size() % kPageSize, 0u);
      }
      EXPECT_GE(leaf.access_count, 0.0);
    }
  }
  // The hot spot must rank first whenever any splits happened.
  if (tree.total_splits() > 2) {
    const auto ranked = tree.Ranked();
    EXPECT_LT(ranked[0].start, 512 * kMiB);
    EXPECT_GT(ranked[0].end, 100 * kMiB);
    EXPECT_LT(ranked[0].start, 108 * kMiB);
  }
  // Leaf population stays manageable regardless of parameters (§3.2.1).
  EXPECT_LT(tree.leaves().size(), 200u);
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, RangeTreeParamTest,
    ::testing::Combine(::testing::Values(1.0, 2.0, 4.0),          // alpha
                       ::testing::Values(2.0, 15.0, 30.0),        // tau_split
                       ::testing::Values(kPageSize, kHugePageSize, 16 * kMiB)),
    [](const ::testing::TestParamInfo<TreeParams>& info) {
      // Appends rather than `"a" + std::string`, which GCC 12 flags with a
      // false -Wrestrict in optimized builds.
      std::string name = "a";
      name += std::to_string(static_cast<int>(std::get<0>(info.param)));
      name += "_t";
      name += std::to_string(static_cast<int>(std::get<1>(info.param)));
      name += "_g";
      name += std::to_string(std::get<2>(info.param) / kPageSize);
      return name;
    });

// ---- PEBS parameter grid --------------------------------------------------------

using PebsParams = std::tuple<uint64_t, double>;  // period, threshold.

class PebsParamTest : public ::testing::TestWithParam<PebsParams> {};

TEST_P(PebsParamTest, SampleRateMatchesPeriod) {
  const auto& [period, threshold] = GetParam();
  PebsConfig config;
  config.sample_period = period;
  config.latency_threshold_ns = threshold;
  config.buffer_capacity = 1 << 20;  // No PMI interference.
  PebsUnit unit(config);
  unit.set_enabled(true);
  const int kLoads = 2000000;
  for (int i = 0; i < kLoads; ++i) {
    unit.OnAccess(static_cast<uint64_t>(i) * 64, 176.6, false, 0);
  }
  // All loads pass a threshold below PMEM latency; none pass one above it.
  const uint64_t expected = threshold <= 176.6 ? kLoads / period : 0;
  EXPECT_EQ(unit.stats().records_written, expected);
}

INSTANTIATE_TEST_SUITE_P(PeriodsAndThresholds, PebsParamTest,
                         ::testing::Combine(::testing::Values(61, 509, 4093, 65537),
                                            ::testing::Values(64.0, 1000.0)),
                         [](const ::testing::TestParamInfo<PebsParams>& info) {
                           std::string name = "p";
                           name += std::to_string(std::get<0>(info.param));
                           name += "_t";
                           name += std::to_string(static_cast<int>(std::get<1>(info.param)));
                           return name;
                         });

}  // namespace
}  // namespace demeter
