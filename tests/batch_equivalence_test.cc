// Run-memo equivalence: Vm::ExecuteBatch coalesces consecutive accesses to
// one page into a run whose TLB probe and dirty micro-walk happen once
// (ExecuteAccessImpl's memo). That must change nothing a simulation can
// observe. Two identical machines start their run and take the same
// generated batches: one runs each batch as a single ExecuteBatch, the other
// calls ExecuteAccess op by op (a fresh memo per access, which never
// matches) and advances the vCPU clock itself. Per-op costs and clocks, the
// full metric registry — TLB hits/misses/flushes, walk costs, tier access
// counters, fault injections, swap traffic, PEBS/PMI counts, policy
// migrations — and every GPT and EPT leaf with its Accessed and Dirty bits
// must be byte-identical, for every workload generator, fault-free and
// faulted, two- and three-tier. Two more configurations target the memo's
// resets one by one: a PMI handler that moves the page a run is on, and a
// poison recovery in the middle of a run.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/core/policy.h"
#include "src/fault/fault.h"
#include "src/harness/machine.h"
#include "src/pebs/pebs.h"

namespace demeter {
namespace {

constexpr size_t kBatchOps = 512;  // The harness default (MachineConfig).

struct RunSpec {
  std::string workload = "gups";
  PolicyKind policy = PolicyKind::kStatic;
  std::string fault_spec;
  bool three_tier = false;
  Nanos run_ns = 40 * kMillisecond;  // Virtual time each vCPU runs.
  // Install PageMovingPmiPolicy (below) instead of `policy`.
  bool page_moving_pmi = false;
  // Overrides the workload's cache-hit rate when >= 0.
  double cache_hit_rate = -1.0;
  // Access each generated op's page as write, read, write: the middle read
  // lands inside a run that a write opened, and the last write continues it.
  bool write_read_write = false;
};

// A policy whose PMI handler moves every sampled page to the other node,
// sampling every third load with a zero latency threshold, so cache hits
// are sampled too and a one-record buffer raises a PMI on each sample. A
// PMI on a cache hit thus moves the page a run is coalescing on.
class PageMovingPmiPolicy : public TmmPolicy {
 public:
  const char* name() const override { return "page-moving-pmi"; }

  void Attach(Vm& vm, GuestProcess& process, Nanos /*start*/) override {
    for (int i = 0; i < vm.num_vcpus(); ++i) {
      PebsConfig pebs = vm.config().pebs;
      pebs.sample_period = 3;
      pebs.latency_threshold_ns = 0.0;
      pebs.buffer_capacity = 1;
      vm.vcpu(i).pebs = std::make_unique<PebsUnit>(pebs);
      vm.vcpu(i).pebs->set_enabled(true);
      vm.vcpu(i).pebs->set_pmi_handler(
          [&vm, &process, alive = alive_](std::vector<PebsRecord>&& records, Nanos now) {
            if (!*alive) {
              return;
            }
            for (const PebsRecord& record : records) {
              const PageNum vpn = PageOf(record.gva);
              const int node = vm.NodeOfVpn(process, vpn);
              double cost_ns = 0.0;
              if (node >= 0) {
                vm.MovePage(process, vpn, node == 0 ? 1 : 0, now, &cost_ns);
              }
            }
          });
    }
  }
};

// Builds the host and VM and runs StartRun: provisioning, workload setup,
// the init pass and policy attach, all through the machine's own code.
std::unique_ptr<Machine> StartMachine(const RunSpec& spec) {
  MachineConfig host;
  if (spec.three_tier) {
    // FMEM + SMEM deliberately smaller than the footprint so EPT populates
    // spill into the far swap tier and accesses take the swap-in path.
    host.tiers = {TierSpec::LocalDram(4 * kMiB), TierSpec::Pmem(12 * kMiB),
                  TierSpec::Zswap(64 * kMiB)};
  } else {
    host.tiers = {TierSpec::LocalDram(10 * kMiB), TierSpec::Pmem(64 * kMiB)};
  }
  host.seed = 42;
  if (!spec.fault_spec.empty()) {
    const auto plan = FaultPlan::Parse(spec.fault_spec);
    EXPECT_TRUE(plan.has_value()) << spec.fault_spec;
    host.faults = *plan;
  }
  auto machine = std::make_unique<Machine>(host);
  VmSetup setup;
  setup.vm.total_memory_bytes = 32 * kMiB;
  setup.vm.num_vcpus = 2;
  setup.workload = spec.workload;
  setup.footprint_bytes = 24 * kMiB;
  setup.policy = spec.policy;
  setup.policy_period = 15 * kMillisecond;
  setup.demeter.range.epoch_length = 10 * kMillisecond;
  setup.demeter.range.split_threshold = 4.0;
  setup.demeter.sample_period = 97;
  machine->AddVm(setup);
  if (spec.page_moving_pmi) {
    machine->SetCustomPolicy(0, std::make_unique<PageMovingPmiPolicy>());
  }
  machine->StartRun();
  if (spec.cache_hit_rate >= 0.0) {
    machine->vm(0).set_cache_hit_rate(spec.cache_hit_rate);
  }
  return machine;
}

Nanos MinClock(const Vm& vm) {
  Nanos min_clock = std::numeric_limits<Nanos>::max();
  for (int v = 0; v < vm.num_vcpus(); ++v) {
    min_clock = std::min(min_clock, vm.vcpu(v).now());
  }
  return min_clock;
}

// Services every context-switch tick the vCPU's clock has passed.
void ServiceTicks(Vm& vm, int v) {
  Vcpu& vcpu = vm.vcpu(v);
  while (vcpu.clock_ns >= static_cast<double>(vcpu.next_context_switch)) {
    vcpu.clock_ns += vm.OnContextSwitch(v, vcpu.now());
    vcpu.next_context_switch += vm.config().context_switch_period;
  }
}

using Leaf = std::tuple<PageNum, uint64_t, bool, bool>;  // vpn, target, A, D.

std::vector<Leaf> Leaves(const PageTable& table) {
  std::vector<Leaf> leaves;
  table.ForEachPresent(0, PageTable::kMaxPage,
                       [&leaves](PageNum vpn, uint64_t target, bool accessed, bool dirty) {
                         leaves.emplace_back(vpn, target, accessed, dirty);
                       });
  return leaves;
}

void ExpectIdentical(const RunSpec& spec) {
  SCOPED_TRACE(spec.workload + " " +
               (spec.page_moving_pmi ? "page-moving-pmi" : PolicyKindName(spec.policy)) +
               (spec.fault_spec.empty() ? "" : " faults=" + spec.fault_spec) +
               (spec.three_tier ? " three-tier" : "") +
               (spec.write_read_write ? " write-read-write" : ""));
  std::unique_ptr<Machine> batched = StartMachine(spec);
  std::unique_ptr<Machine> stepped = StartMachine(spec);
  Vm& batched_vm = batched->vm(0);
  Vm& stepped_vm = stepped->vm(0);
  GuestProcess& batched_proc = *batched_vm.kernel().processes().front();
  GuestProcess& stepped_proc = *stepped_vm.kernel().processes().front();
  ASSERT_EQ(MinClock(batched_vm), MinClock(stepped_vm));

  const Nanos end = MinClock(batched_vm) + spec.run_ns;
  Rng rng(7);
  std::vector<AccessOp> batch;
  std::vector<BatchStep> steps;
  uint64_t ops = 0;
  for (int round = 0; MinClock(batched_vm) < end; ++round) {
    for (int v = 0; v < batched_vm.num_vcpus(); ++v) {
      batch.clear();
      batched->workload(0)->NextBatch(v, kBatchOps, rng, &batch);
      if (spec.write_read_write) {
        std::vector<AccessOp> triples;
        for (const AccessOp& op : batch) {
          triples.push_back(AccessOp{op.gva, /*is_write=*/true});
          triples.push_back(AccessOp{op.gva, /*is_write=*/false});
          triples.push_back(AccessOp{op.gva, /*is_write=*/true});
        }
        batch = std::move(triples);
      }
      steps.resize(batch.size());
      ASSERT_EQ(batched_vm.ExecuteBatch(v, batched_proc, batch,
                                        std::numeric_limits<double>::infinity(), steps.data()),
                batch.size());
      Vcpu& vcpu = stepped_vm.vcpu(v);
      for (size_t k = 0; k < batch.size(); ++k) {
        const AccessResult r =
            stepped_vm.ExecuteAccess(v, stepped_proc, batch[k].gva, batch[k].is_write);
        vcpu.clock_ns += r.ns;
        // Bit-identical, not approximately equal: both paths must perform
        // the same floating-point accumulations in the same order.
        if (r.ns != steps[k].ns || vcpu.now() != steps[k].clock_after) {
          FAIL() << "round " << round << " vcpu " << v << " op " << k << ": batched "
                 << steps[k].ns << " ns to clock " << steps[k].clock_after << ", op by op "
                 << r.ns << " ns to clock " << vcpu.now();
        }
      }
      ops += batch.size();
      ServiceTicks(batched_vm, v);
      ServiceTicks(stepped_vm, v);
    }
    batched->events().RunUntil(MinClock(batched_vm));
    stepped->events().RunUntil(MinClock(stepped_vm));
  }
  EXPECT_GT(ops, 0u);
  EXPECT_EQ(batched->SnapshotMetrics().ToJson(), stepped->SnapshotMetrics().ToJson());
  EXPECT_EQ(Leaves(batched_proc.gpt()), Leaves(stepped_proc.gpt()));
  EXPECT_EQ(Leaves(batched_vm.ept()), Leaves(stepped_vm.ept()));
}

// Every workload generator. Access patterns span uniform-random (gups),
// skewed (gups-hot), pointer-chasing (btree, graph500), scans with high
// run-length (bwaves, liblinear) and transactional mixes (silo) — the
// run-coalescing memo fires at very different rates across these.
class BatchEquivalenceWorkloads : public ::testing::TestWithParam<std::string> {};

TEST_P(BatchEquivalenceWorkloads, BatchedAndOpByOpByteIdentical) {
  RunSpec spec;
  spec.workload = GetParam();
  ExpectIdentical(spec);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, BatchEquivalenceWorkloads,
                         ::testing::Values("gups", "gups-hot", "btree", "silo", "bwaves",
                                           "xsbench", "graph500", "pagerank", "liblinear"));

// An active policy migrates pages mid-run (PMIs, shootdowns, full flushes),
// exercising the memo-invalidation paths.
TEST(BatchEquivalence, DemeterPolicy) {
  RunSpec spec;
  spec.policy = PolicyKind::kDemeter;
  ExpectIdentical(spec);
}

TEST(BatchEquivalence, SequentialWorkloadWithPolicy) {
  RunSpec spec;
  spec.workload = "bwaves";
  spec.policy = PolicyKind::kDemeter;
  ExpectIdentical(spec);
}

// Faulted: hwpoison on both tiers (per-access Bernoulli draws — the most
// order-sensitive site), stall windows, PEBS sample loss, migration
// failures. Counters include every vm0/fault/<site>_injected cell. The
// faulted runs are longer so that poison recoveries, which drop the memo
// mid-run, actually happen.
TEST(BatchEquivalence, FaultedPoisonAndStalls) {
  RunSpec spec;
  spec.policy = PolicyKind::kDemeter;
  spec.run_ns = 200 * kMillisecond;
  spec.fault_spec = "poison=0.000002@0,poison=0.000002@1,stall=2ms/40ms,pebsdrop=0.01,migfail=0.05";
  ExpectIdentical(spec);
}

TEST(BatchEquivalence, FaultedSequential) {
  RunSpec spec;
  spec.workload = "bwaves";
  spec.run_ns = 200 * kMillisecond;
  spec.fault_spec = "poison=0.000002@0,poison=0.000002@1";
  ExpectIdentical(spec);
}

// Three-tier host under memory pressure: swap-in retries and in-place far
// accesses (never memoized) flow through the batch path.
TEST(BatchEquivalence, ThreeTierSwapPressure) {
  RunSpec spec;
  spec.three_tier = true;
  ExpectIdentical(spec);
}

// The memo reset after a PMI on a cache hit: a write opens a run on a page,
// a cache-hit read of it is sampled and its PMI moves the page, and the
// next write must re-translate instead of continuing the run on the old
// frame.
TEST(BatchEquivalence, PmiOnCacheHitMovesTheRunPage) {
  RunSpec spec;
  spec.page_moving_pmi = true;
  spec.cache_hit_rate = 0.5;
  spec.write_read_write = true;
  ExpectIdentical(spec);
}

// The memo reset after a poison recovery inside a run: write, poisoned
// read, write on one page. Recovery gives the page a fresh leaf with D
// clear, so the second write must set D again through the dirty
// micro-walk. One round only: about a third of the accesses are poisoned,
// and each recovery retires a frame.
TEST(BatchEquivalence, PoisonRecoveryInsideARun) {
  RunSpec spec;
  spec.cache_hit_rate = 0.0;
  spec.write_read_write = true;
  spec.run_ns = 1;
  spec.fault_spec = "poison=0.3@0,poison=0.3@1";
  ExpectIdentical(spec);
}

TEST(BatchEquivalence, ThreeTierFaulted) {
  RunSpec spec;
  spec.three_tier = true;
  spec.run_ns = 200 * kMillisecond;
  spec.fault_spec = "poison=0.000002@1,swapfail=0.01/1ms";
  ExpectIdentical(spec);
}

}  // namespace
}  // namespace demeter
