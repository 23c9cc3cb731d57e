#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/guest/kernel.h"
#include "src/workloads/db_workloads.h"
#include "src/workloads/graph_workloads.h"
#include "src/workloads/gups.h"
#include "src/workloads/hpc_workloads.h"
#include "src/workloads/ml_workloads.h"
#include "src/workloads/workload.h"

namespace demeter {
namespace {

// Runs Setup in a throwaway process and returns generated ops.
std::vector<AccessOp> Generate(Workload& wl, size_t count, uint64_t seed = 7) {
  GuestKernelConfig kconfig;
  kconfig.num_nodes = 2;
  kconfig.node_span_pages = {1 << 20, 1 << 20};
  kconfig.node_present_pages = {1 << 18, 1 << 19};
  static std::vector<std::unique_ptr<GuestKernel>> kernels;  // Keep processes alive.
  kernels.push_back(std::make_unique<GuestKernel>(kconfig));
  GuestProcess& proc = kernels.back()->CreateProcess();
  Rng rng(seed);
  wl.Setup(proc, rng);
  std::vector<AccessOp> ops;
  for (int w = 0; w < 4; ++w) {
    wl.NextBatch(w, count / 4, rng, &ops);
  }
  // All ops must fall inside tracked VMAs.
  for (const AccessOp& op : ops) {
    const Vma* vma = proc.space().FindVma(op.gva);
    EXPECT_NE(vma, nullptr) << wl.name() << " op outside any VMA: " << op.gva;
    if (vma != nullptr) {
      EXPECT_TRUE(vma->tracked) << wl.name() << " op in untracked VMA";
    }
  }
  return ops;
}

double WriteFraction(const std::vector<AccessOp>& ops) {
  size_t writes = 0;
  for (const auto& op : ops) {
    writes += op.is_write ? 1 : 0;
  }
  return ops.empty() ? 0.0 : static_cast<double>(writes) / static_cast<double>(ops.size());
}

size_t DistinctPages(const std::vector<AccessOp>& ops) {
  std::unordered_set<PageNum> pages;
  for (const auto& op : ops) {
    pages.insert(PageOf(op.gva));
  }
  return pages.size();
}

TEST(Workloads, FactoryBuildsAllNames) {
  for (const auto& name : RealWorldWorkloadNames()) {
    auto wl = MakeWorkload(name, 8 * kMiB);
    ASSERT_NE(wl, nullptr);
    EXPECT_EQ(name, wl->name());
    EXPECT_EQ(wl->footprint_bytes(), 8 * kMiB);
  }
  EXPECT_STREQ(MakeWorkload("gups", kMiB)->name(), "gups");
  EXPECT_EQ(RealWorldWorkloadNames().size(), 7u);
}

TEST(Workloads, UnknownNameAborts) {
  EXPECT_DEATH(MakeWorkload("nosuch", kMiB), "unknown workload");
}

TEST(GupsWorkload, HotRegionDominatesAccesses) {
  GupsConfig config;
  config.footprint_bytes = 16 * kMiB;
  GupsHotset gups(config);
  auto ops = Generate(gups, 40000);
  size_t hot = 0;
  for (const auto& op : ops) {
    if (op.gva >= gups.hot_base() && op.gva < gups.hot_base() + gups.hot_bytes()) {
      ++hot;
    }
  }
  // P(hot region) ~= 0.526 by construction plus uniform spillover.
  EXPECT_GT(hot, ops.size() / 2);
  EXPECT_LT(hot, ops.size() * 3 / 4);
  EXPECT_NEAR(WriteFraction(ops), 0.5, 0.01) << "read-modify-write pairs";
}

TEST(GupsWorkload, ReadThenWriteSameAddress) {
  GupsHotset gups(GupsConfig{.footprint_bytes = 4 * kMiB});
  auto ops = Generate(gups, 1000);
  for (size_t i = 0; i + 1 < ops.size(); i += 2) {
    EXPECT_EQ(ops[i].gva, ops[i + 1].gva);
    EXPECT_FALSE(ops[i].is_write);
    EXPECT_TRUE(ops[i + 1].is_write);
  }
}

TEST(BtreeWorkload, TraversalTouchesEveryLevel) {
  BtreeConfig config;
  config.footprint_bytes = 16 * kMiB;
  BtreeWorkload btree(config);
  auto ops = Generate(btree, 10000);
  EXPECT_GT(btree.levels(), 2);
  EXPECT_EQ(ops.size() % static_cast<size_t>(btree.levels()), 0u);
  EXPECT_DOUBLE_EQ(WriteFraction(ops), 0.0) << "lookup-only";
  // Root node (first per lookup) is identical across lookups: hub behaviour.
  std::unordered_set<uint64_t> roots;
  for (size_t i = 0; i < ops.size(); i += static_cast<size_t>(btree.levels())) {
    roots.insert(ops[i].gva);
  }
  EXPECT_EQ(roots.size(), 1u);
}

// The btree descent as it was written with divisions: fanout 16, 256-byte
// nodes, node index key / 16^(levels-1-l) clamped to the level's last node.
class ReferenceBtree {
 public:
  ReferenceBtree(uint64_t footprint_bytes, GuestProcess& process) {
    leaf_count_ = footprint_bytes / kNodeBytes;
    std::vector<uint64_t> sizes;
    for (uint64_t n = leaf_count_; n > 1; n = (n + kFanout - 1) / kFanout) {
      sizes.push_back(n);
    }
    sizes.push_back(1);
    for (size_t l = 0; l < sizes.size(); ++l) {
      const uint64_t nodes = sizes[sizes.size() - 1 - l];
      level_base_.push_back(process.HeapAlloc(nodes * kNodeBytes));
      level_nodes_.push_back(nodes);
    }
  }

  void NextBatch(size_t count, Rng& rng, std::vector<AccessOp>* ops) const {
    const size_t levels = level_base_.size();
    for (size_t i = 0; i < count / levels; ++i) {
      const uint64_t key = rng.NextBelow(leaf_count_);
      uint64_t divisor = 1;
      for (size_t l = 1; l < levels; ++l) {
        divisor *= kFanout;
      }
      for (size_t l = 0; l < levels; ++l) {
        const uint64_t idx = std::min(key / divisor, level_nodes_[l] - 1);
        ops->push_back(AccessOp{level_base_[l] + idx * kNodeBytes, /*is_write=*/false});
        divisor = divisor > 1 ? divisor / kFanout : 1;
      }
    }
  }

  int levels() const { return static_cast<int>(level_base_.size()); }

 private:
  static constexpr uint64_t kFanout = 16;
  static constexpr uint64_t kNodeBytes = 256;
  uint64_t leaf_count_ = 0;
  std::vector<uint64_t> level_base_;
  std::vector<uint64_t> level_nodes_;
};

// BtreeWorkload's shift-based descent emits exactly the reference's ops
// from the same seed, on trees of 1 to 6 levels whose leaf counts are
// powers of 16, one below or above one, or neither.
TEST(BtreeWorkload, DescentMatchesDivisionReference) {
  GuestKernelConfig kconfig;
  kconfig.num_nodes = 2;
  kconfig.node_span_pages = {1 << 20, 1 << 20};
  kconfig.node_present_pages = {1 << 18, 1 << 19};
  GuestKernel kernel(kconfig);
  int seen_levels = 0;
  for (const uint64_t leaves : {uint64_t{1}, uint64_t{10}, uint64_t{16}, uint64_t{17},
                                uint64_t{200}, uint64_t{256}, uint64_t{4095}, uint64_t{4097},
                                uint64_t{40000}, uint64_t{65536}, uint64_t{1000003}}) {
    const uint64_t footprint = leaves * 256 + leaves % 256;  // A partial node rounds down.
    BtreeWorkload btree(BtreeConfig{.footprint_bytes = footprint});
    Rng setup_rng(1);
    btree.Setup(kernel.CreateProcess(), setup_rng);
    const ReferenceBtree ref(footprint, kernel.CreateProcess());
    ASSERT_EQ(btree.levels(), ref.levels()) << leaves << " leaves";
    seen_levels = std::max(seen_levels, btree.levels());
    Rng rng(0xb7 + leaves);
    Rng ref_rng(0xb7 + leaves);
    std::vector<AccessOp> got = {AccessOp{1, true}};  // NextBatch appends.
    std::vector<AccessOp> want = got;
    // Whole batches must match, the op already in the vector included, both
    // when the vector grows and when it is cleared and reused as the
    // harness does.
    struct Batch {
      size_t count;
      bool reuse;
    };
    for (const Batch batch : {Batch{1, false}, Batch{7, false}, Batch{1000, false},
                              Batch{4096, false}, Batch{0, false}, Batch{512, true},
                              Batch{512, true}}) {
      if (batch.reuse) {
        got.clear();
        want.clear();
      }
      btree.NextBatch(0, batch.count, rng, &got);
      ref.NextBatch(batch.count, ref_rng, &want);
      ASSERT_EQ(got.size(), want.size()) << leaves << " leaves, batch of " << batch.count;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].gva, want[i].gva) << leaves << " leaves, op " << i;
        ASSERT_EQ(got[i].is_write, want[i].is_write) << leaves << " leaves, op " << i;
      }
    }
  }
  EXPECT_EQ(seen_levels, 6);
}

TEST(SiloWorkload, HotspotDriftsOverTime) {
  SiloConfig config;
  config.footprint_bytes = 16 * kMiB;
  config.drift_period_txns = 500;
  config.drift_step_fraction = 0.3;
  SiloYcsb silo(config);
  // Two widely separated batches should favour different record pages.
  GuestKernelConfig kconfig;
  kconfig.num_nodes = 2;
  kconfig.node_span_pages = {1 << 20, 1 << 20};
  kconfig.node_present_pages = {1 << 18, 1 << 19};
  GuestKernel kernel(kconfig);
  GuestProcess& proc = kernel.CreateProcess();
  Rng rng(3);
  silo.Setup(proc, rng);
  auto top_page = [&](size_t txns) {
    std::vector<AccessOp> ops;
    silo.NextBatch(0, txns * static_cast<size_t>(silo.OpsPerTransaction()), rng, &ops);
    std::unordered_map<PageNum, int> counts;
    for (const auto& op : ops) {
      ++counts[PageOf(op.gva)];
    }
    PageNum best = 0;
    int best_count = 0;
    for (auto& [page, count] : counts) {
      if (count > best_count) {
        best = page;
        best_count = count;
      }
    }
    return best;
  };
  const PageNum early = top_page(400);
  for (int i = 0; i < 10; ++i) {
    top_page(400);  // Advance through several drift periods.
  }
  const PageNum late = top_page(400);
  EXPECT_NE(early, late) << "hotspot must move";
}

TEST(BwavesWorkload, StreamsSequentially) {
  BwavesConfig config;
  config.footprint_bytes = 16 * kMiB;
  BwavesWorkload bwaves(config);
  auto ops = Generate(bwaves, 20000);
  EXPECT_NEAR(WriteFraction(ops), 0.25, 0.02) << "one write per 4-op stencil step";
  // Broad coverage: streaming touches many distinct pages.
  EXPECT_GT(DistinctPages(ops), 100u);
}

TEST(XsbenchWorkload, UnionizedGridIsHot) {
  XsbenchConfig config;
  config.footprint_bytes = 16 * kMiB;
  XsbenchWorkload xs(config);
  auto ops = Generate(xs, 30000);
  size_t hot = 0;
  for (const auto& op : ops) {
    if (op.gva >= xs.unionized_base() && op.gva < xs.unionized_base() + xs.unionized_bytes()) {
      ++hot;
    }
  }
  // 12 of 18 ops per lookup hit the (12%-of-footprint) unionized grid.
  EXPECT_GT(hot, ops.size() / 2);
}

TEST(GraphWorkloads, PowerLawSkew) {
  GraphConfig config;
  config.footprint_bytes = 16 * kMiB;
  Graph500Bfs bfs(config);
  auto ops = Generate(bfs, 30000);
  std::unordered_map<PageNum, int> counts;
  for (const auto& op : ops) {
    ++counts[PageOf(op.gva)];
  }
  // Top 10% of touched pages should hold a disproportionate share.
  std::vector<int> sorted;
  for (auto& [page, count] : counts) {
    sorted.push_back(count);
  }
  std::sort(sorted.rbegin(), sorted.rend());
  size_t top = sorted.size() / 10;
  long top_sum = 0;
  long total = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    total += sorted[i];
    if (i < top) {
      top_sum += sorted[i];
    }
  }
  EXPECT_GT(top_sum, total / 4) << "hubs dominate";
}

TEST(PageRankWorkload, MixesSequentialAndScattered) {
  GraphConfig config;
  config.footprint_bytes = 16 * kMiB;
  PageRankWorkload pr(config);
  auto ops = Generate(pr, 30000);
  EXPECT_NEAR(WriteFraction(ops), 1.0 / 3.0, 0.02);
  EXPECT_GT(DistinctPages(ops), 200u);
}

TEST(LiblinearWorkload, ModelVectorIsHot) {
  LiblinearConfig config;
  config.footprint_bytes = 16 * kMiB;
  LiblinearWorkload ll(config);
  auto ops = Generate(ll, 30000);
  size_t in_model = 0;
  for (const auto& op : ops) {
    if (op.gva >= ll.model_base() && op.gva < ll.model_base() + ll.model_bytes()) {
      ++in_model;
    }
  }
  // 2 of 3 ops per feature touch the model vector (6% of footprint).
  EXPECT_NEAR(static_cast<double>(in_model) / static_cast<double>(ops.size()), 2.0 / 3.0, 0.05);
}

TEST(Workloads, DeterministicAcrossRuns) {
  for (const auto& name : RealWorldWorkloadNames()) {
    auto a = MakeWorkload(name, 8 * kMiB);
    auto b = MakeWorkload(name, 8 * kMiB);
    auto ops_a = Generate(*a, 4000, 11);
    auto ops_b = Generate(*b, 4000, 11);
    ASSERT_EQ(ops_a.size(), ops_b.size()) << name;
    for (size_t i = 0; i < ops_a.size(); ++i) {
      ASSERT_EQ(ops_a[i].gva, ops_b[i].gva) << name << " op " << i;
      ASSERT_EQ(ops_a[i].is_write, ops_b[i].is_write) << name;
    }
  }
}

}  // namespace
}  // namespace demeter
