// Google-benchmark micro-benchmarks for the core data structures: range
// tree operations, TLB, 2D page walks, PEBS sampling, the Zipf generator,
// and the latency histogram. These bound the real CPU cost of the
// structures that the simulation charges virtual time for.

#include <benchmark/benchmark.h>

#include <span>
#include <utility>
#include <vector>

#include "src/base/histogram.h"
#include "src/base/rng.h"
#include "src/core/range_tree.h"
#include "src/hyper/hypervisor.h"
#include "src/hyper/vm.h"
#include "src/mem/host_memory.h"
#include "src/mmu/page_table.h"
#include "src/mmu/tlb.h"
#include "src/mmu/walker.h"
#include "src/pebs/pebs.h"
#include "src/sim/event_queue.h"

namespace demeter {
namespace {

// Rng::NextZipf at silo's two (n, theta) pairs for a VM footprint of
// Arg MiB (SiloYcsb: 1/16 index at 64 B slots, theta 0.6; 1 KiB records,
// theta 0.9), interleaved 3:4 like one silo transaction. Arg 24 is
// kv-zipf's footprint (32 MiB VMs, 3/4 of memory), Arg 12 fleet-ha's
// (16 MiB VMs).
void BM_RngNextZipf(benchmark::State& state) {
  const uint64_t footprint = static_cast<uint64_t>(state.range(0)) * kMiB;
  const uint64_t index_bytes = PageCeil(footprint / 16);
  const uint64_t index_slots = index_bytes / 64;
  const uint64_t records = (footprint - index_bytes) / 1024;
  Rng rng(1);
  for (auto _ : state) {
    for (int k = 0; k < 3; ++k) {
      benchmark::DoNotOptimize(rng.NextZipf(index_slots, 0.6));
    }
    for (int k = 0; k < 4; ++k) {
      benchmark::DoNotOptimize(rng.NextZipf(records, 0.9));
    }
  }
  state.SetItemsProcessed(state.iterations() * 7);
}
BENCHMARK(BM_RngNextZipf)->Arg(12)->Arg(24);

void BM_RangeTreeRecordSample(benchmark::State& state) {
  RangeTree tree;
  tree.AddRegion(0, 4 * kGiB);
  // Pre-split into a realistic leaf population.
  Rng rng(1);
  for (int e = 0; e < 30; ++e) {
    for (int i = 0; i < 2000; ++i) {
      tree.RecordSample(kGiB + rng.NextBelow(8 * kMiB));
    }
    tree.EndEpoch(4);
  }
  uint64_t addr = 0;
  for (auto _ : state) {
    tree.RecordSample(kGiB + (addr & (8 * kMiB - 1)));
    addr += 4093;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RangeTreeRecordSample);

void BM_RangeTreeEndEpoch(benchmark::State& state) {
  RangeTree tree;
  tree.AddRegion(0, 4 * kGiB);
  Rng rng(1);
  for (auto _ : state) {
    for (int i = 0; i < 500; ++i) {
      tree.RecordSample(rng.NextZipf(4 * kGiB / 64, 0.9) * 64);
    }
    tree.EndEpoch(4);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RangeTreeEndEpoch);

void BM_TlbLookupHit(benchmark::State& state) {
  Tlb tlb;
  for (PageNum p = 0; p < 1024; ++p) {
    tlb.Insert(p, p);
  }
  PageNum p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.Lookup(p & 1023));
    ++p;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookupHit);

void BM_TlbLookupHitMixedRecency(benchmark::State& state) {
  // BM_TlbLookupHit hits the front of each set's recency list every time.
  // Here every set is full at 8 ways and each probe picks a resident page
  // at random, so a hit is equally likely at any of the 8 places.
  Tlb tlb;
  for (PageNum p = 0; p < 4 * static_cast<PageNum>(tlb.capacity()); ++p) {
    tlb.Insert(p, p);
  }
  std::vector<PageNum> resident;
  tlb.ForEachValid([&](PageNum vpn, FrameId) { resident.push_back(vpn); });
  if (resident.size() != static_cast<size_t>(tlb.capacity())) {
    state.SkipWithError("a set is not full");
    return;
  }
  Rng rng(1);
  std::vector<PageNum> probes(1 << 16);
  for (PageNum& vpn : probes) {
    vpn = resident[rng.NextBelow(resident.size())];
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.Lookup(probes[next]));
    next = (next + 1) & (probes.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookupHitMixedRecency);

void BM_TlbLookupHitManyVcpus(benchmark::State& state) {
  // dense-scan's shape: 128 vCPUs, each with a default TLB holding 3072
  // pages, probed round-robin in shuffled page order, so the probe pays for
  // TLB state that does not fit in the core's private caches.
  constexpr int kVcpus = 128;
  constexpr PageNum kPages = 3072;
  std::vector<Tlb> tlbs(kVcpus);
  for (Tlb& tlb : tlbs) {
    for (PageNum p = 0; p < kPages; ++p) {
      tlb.Insert(p, p);
    }
  }
  // Probe only resident pages (a few sets overflow their 8 ways).
  std::vector<PageNum> order;
  tlbs.front().ForEachValid([&](PageNum vpn, FrameId) { order.push_back(vpn); });
  Rng rng(1);
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBelow(i + 1)]);
  }
  size_t vcpu = 0;
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlbs[vcpu].Lookup(order[next]));
    if (++vcpu == kVcpus) {
      vcpu = 0;
      next = next + 1 == order.size() ? 0 : next + 1;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookupHitManyVcpus);

void BM_Translate2dMiss(benchmark::State& state) {
  Tlb tlb(2, 2);  // Tiny TLB: force misses.
  PageTable gpt;
  PageTable ept;
  MmuCosts costs;
  for (PageNum p = 0; p < 4096; ++p) {
    gpt.Map(p, p, true);
    ept.Map(p, p, true);
  }
  PageNum p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Translate2D(tlb, gpt, ept, p & 4095, false, costs));
    p += 7;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Translate2dMiss);

void BM_Translate2dHitWrite(benchmark::State& state) {
  // The hottest path in the whole simulation: a TLB-hit write, which also
  // runs the A/D micro-walk through both page tables (leaf-cache served).
  Tlb tlb;
  PageTable gpt;
  PageTable ept;
  MmuCosts costs;
  for (PageNum p = 0; p < 1024; ++p) {
    gpt.Map(p, p, true);
    ept.Map(p, p, true);
    tlb.Insert(p, p);
  }
  PageNum p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Translate2D(tlb, gpt, ept, p & 1023, true, costs));
    ++p;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Translate2dHitWrite);

void BM_TlbInvalidateAll(benchmark::State& state) {
  // Hypervisor-side tracking full-flushes every scan round; with the epoch
  // scheme this is O(1) instead of an 8K-entry sweep. Re-insert a few
  // entries each round so the flush always has something live to drop.
  Tlb tlb;
  PageNum p = 0;
  for (auto _ : state) {
    for (int i = 0; i < 8; ++i) {
      tlb.Insert(p, p);
      ++p;
    }
    tlb.InvalidateAll();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbInvalidateAll);

void BM_PageTableScanAndClear(benchmark::State& state) {
  PageTable pt;
  const PageNum pages = static_cast<PageNum>(state.range(0));
  for (PageNum p = 0; p < pages; ++p) {
    pt.Map(p, p, true);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pt.ScanAndClearAccessed(0, pages, [](PageNum, uint64_t, bool, bool) {}));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(pages));
}
BENCHMARK(BM_PageTableScanAndClear)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_PebsOnAccess(benchmark::State& state) {
  PebsConfig config;
  config.sample_period = 4093;
  PebsUnit unit(config);
  unit.set_enabled(true);
  unit.set_pmi_handler([](std::vector<PebsRecord>&&, Nanos) {});
  uint64_t gva = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(unit.OnAccess(gva += 64, 176.6, false, 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PebsOnAccess);

void BM_EventQueueSchedulePop(benchmark::State& state) {
  // Schedule/fire churn as the simulation main loop drives timers: measures
  // heap push/pop plus the move-only callback hand-off.
  EventQueue q;
  Nanos now = 0;
  uint64_t sink = 0;
  for (auto _ : state) {
    q.Schedule(now + 100, [&sink](Nanos) { ++sink; });
    q.Schedule(now + 50, [&sink](Nanos) { ++sink; });
    now += 60;
    q.RunUntil(now);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueSchedulePop);

void BM_EventQueueCancelChurn(benchmark::State& state) {
  // Balloon timeouts follow schedule -> cancel for nearly every request;
  // the old linear cancelled-list scan made this quadratic over a run.
  EventQueue q;
  Nanos now = 0;
  for (auto _ : state) {
    const uint64_t id = q.Schedule(now + 1000, [](Nanos) {});
    q.Schedule(now + 10, [](Nanos) {});
    benchmark::DoNotOptimize(q.Cancel(id));
    now += 20;
    q.RunUntil(now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueCancelChurn);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram histogram;
  Rng rng(3);
  for (auto _ : state) {
    histogram.Record(rng.NextBelow(1000000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

// ---- Batched access pipeline -----------------------------------------------
//
// End-to-end per-access cost through the Vm hot path: TLB/walker, tier
// queueing model, PEBS counting, and (for the batch path) the same-page run
// memo. BM_ExecuteBatch* and BM_ExecuteAccessScalar process identical op
// streams, so their ns/op difference is the measured win of batching.

struct BatchBenchEnv {
  static constexpr size_t kBatchOps = 256;

  BatchBenchEnv(uint64_t footprint_bytes, uint64_t stride_bytes, int run_length)
      : memory({TierSpec::LocalDram(32 * kMiB), TierSpec::Pmem(128 * kMiB)}),
        hyper(&memory, &events) {
    VmConfig config;
    config.id = 0;
    config.num_vcpus = 1;
    config.total_memory_bytes = 64 * kMiB;
    config.cache_hit_rate = 0.2;
    vm = &hyper.CreateVm(config);
    process = &vm->kernel().CreateProcess();
    const uint64_t base = process->HeapAlloc(footprint_bytes);

    // Pre-fault the working set so the measured loop exercises the steady
    // state (TLB/walk/queueing), not cold guest/EPT faults.
    for (uint64_t off = 0; off < footprint_bytes; off += kPageSize) {
      vm->ExecuteAccess(0, *process, base + off, true);
    }

    // Deterministic op stream: `run_length` consecutive ops per page (1 =
    // no coalescable runs), pages strided through the footprint.
    Rng rng(42);
    ops.reserve(kBatchOps);
    uint64_t page_cursor = 0;
    for (size_t i = 0; i < kBatchOps; i += static_cast<size_t>(run_length)) {
      const uint64_t page_off = (page_cursor * stride_bytes) % footprint_bytes;
      page_cursor += 1 + rng.NextBelow(7);
      for (int r = 0; r < run_length && ops.size() < kBatchOps; ++r) {
        ops.push_back(AccessOp{base + page_off + (static_cast<uint64_t>(r) % 64) * 64,
                               (r & 3) == 0});
      }
    }
    steps.resize(ops.size());
  }

  HostMemory memory;
  EventQueue events;
  Hypervisor hyper;
  Vm* vm = nullptr;
  GuestProcess* process = nullptr;
  std::vector<AccessOp> ops;
  std::vector<BatchStep> steps;
};

// Uniform page-per-op stream (GUPS-like): the run memo almost never hits;
// measures the batch pipeline floor.
void BM_ExecuteBatchUniform(benchmark::State& state) {
  BatchBenchEnv env(16 * kMiB, 5 * kPageSize + 64, /*run_length=*/1);
  const double far_future = 1e18;
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.vm->ExecuteBatch(
        0, *env.process, std::span<const AccessOp>(env.ops), far_future, env.steps.data()));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(env.ops.size()));
}
BENCHMARK(BM_ExecuteBatchUniform);

// Sequential-scan stream (bwaves-like, 8 ops per page): the same-page run
// memo absorbs most translations.
void BM_ExecuteBatchCoalesced(benchmark::State& state) {
  BatchBenchEnv env(16 * kMiB, kPageSize, /*run_length=*/8);
  const double far_future = 1e18;
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.vm->ExecuteBatch(
        0, *env.process, std::span<const AccessOp>(env.ops), far_future, env.steps.data()));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(env.ops.size()));
}
BENCHMARK(BM_ExecuteBatchCoalesced);

// The identical coalescable stream, one ExecuteAccess call per op (the
// pre-batching hot loop): the baseline the batch path is judged against.
void BM_ExecuteAccessScalar(benchmark::State& state) {
  BatchBenchEnv env(16 * kMiB, kPageSize, /*run_length=*/8);
  for (auto _ : state) {
    for (const AccessOp& op : env.ops) {
      benchmark::DoNotOptimize(env.vm->ExecuteAccess(0, *env.process, op.gva, op.is_write));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(env.ops.size()));
}
BENCHMARK(BM_ExecuteAccessScalar);

}  // namespace
}  // namespace demeter

BENCHMARK_MAIN();
