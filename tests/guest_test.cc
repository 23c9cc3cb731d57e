#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/guest/address_space.h"
#include "src/guest/bounded_queue.h"
#include "src/guest/kernel.h"
#include "src/guest/numa_node.h"

namespace demeter {
namespace {

// ---- NumaNode --------------------------------------------------------------

TEST(NumaNode, AllocWithinRange) {
  NumaNode node(0, 1000, 100, 50);
  auto gpa = node.AllocPage();
  ASSERT_TRUE(gpa.has_value());
  EXPECT_TRUE(node.ContainsGpa(*gpa));
  EXPECT_EQ(node.free_pages(), 49u);
  EXPECT_EQ(node.used_pages(), 1u);
}

TEST(NumaNode, ExhaustsAtPresentNotSpan) {
  NumaNode node(0, 0, 100, 10);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(node.AllocPage().has_value());
  }
  EXPECT_FALSE(node.AllocPage().has_value());
}

TEST(NumaNode, FreeRecycles) {
  NumaNode node(0, 0, 10, 1);
  auto gpa = node.AllocPage();
  EXPECT_FALSE(node.AllocPage().has_value());
  node.FreePage(*gpa);
  auto gpa2 = node.AllocPage();
  ASSERT_TRUE(gpa2.has_value());
  EXPECT_EQ(*gpa, *gpa2);
}

TEST(NumaNode, BalloonTakeShrinksPresent) {
  NumaNode node(0, 0, 100, 50);
  std::vector<PageNum> taken;
  EXPECT_EQ(node.BalloonTake(20, &taken), 20u);
  EXPECT_EQ(taken.size(), 20u);
  EXPECT_EQ(node.present_pages(), 30u);
  EXPECT_EQ(node.free_pages(), 30u);
}

TEST(NumaNode, BalloonTakeLimitedByFreePages) {
  NumaNode node(0, 0, 100, 50);
  for (int i = 0; i < 45; ++i) {
    node.AllocPage();
  }
  std::vector<PageNum> taken;
  EXPECT_EQ(node.BalloonTake(20, &taken), 5u) << "only free pages can inflate";
  EXPECT_EQ(node.present_pages(), 45u);
}

TEST(NumaNode, BalloonReturnGrowsPresent) {
  NumaNode node(0, 0, 100, 50);
  std::vector<PageNum> taken;
  node.BalloonTake(30, &taken);
  node.BalloonReturn(taken);
  EXPECT_EQ(node.present_pages(), 50u);
  EXPECT_EQ(node.free_pages(), 50u);
}

TEST(NumaNode, Watermarks) {
  NumaNode node(0, 0, 6400, 6400);
  EXPECT_EQ(node.watermark_min(), 100u);
  EXPECT_EQ(node.watermark_low(), 200u);
  EXPECT_EQ(node.watermark_high(), 400u);
  EXPECT_FALSE(node.BelowLow());
  for (int i = 0; i < 6300; ++i) {
    node.AllocPage();
  }
  EXPECT_TRUE(node.BelowLow());
  EXPECT_FALSE(node.BelowMin());
}

TEST(NumaNode, SpanBeyond32BitOffsetsAborts) {
  // A span of exactly 2^32 pages still has 32-bit offsets; one page more
  // does not, and the node refuses it before allocating anything.
  NumaNode widest(0, uint64_t{3} << 40, uint64_t{1} << 32, 0);
  EXPECT_EQ(widest.gpa_end(), (uint64_t{3} << 40) + (uint64_t{1} << 32));
  EXPECT_DEATH(NumaNode(1, 0, (uint64_t{1} << 32) + 1, 0), "offsets must fit 32 bits");
}

// NumaNode as it stood with 64-bit free-list entries: every present gPA
// pushed high to low, then shuffled with the node's seed.
class ReferenceNode64 {
 public:
  ReferenceNode64(int id, PageNum gpa_base, uint64_t present_pages, uint64_t shuffle_seed)
      : present_pages_(present_pages) {
    for (uint64_t i = present_pages; i > 0; --i) {
      free_list_.push_back(gpa_base + i - 1);
    }
    if (shuffle_seed != 0 && present_pages > 1) {
      Rng rng(shuffle_seed + static_cast<uint64_t>(id));
      for (uint64_t i = present_pages - 1; i > 0; --i) {
        std::swap(free_list_[i], free_list_[rng.NextBelow(i + 1)]);
      }
    }
  }

  std::optional<PageNum> AllocPage() {
    if (free_list_.empty()) {
      return std::nullopt;
    }
    const PageNum gpa = free_list_.back();
    free_list_.pop_back();
    return gpa;
  }
  void FreePage(PageNum gpa) { free_list_.push_back(gpa); }
  uint64_t BalloonTake(uint64_t n, std::vector<PageNum>* taken) {
    const uint64_t count = std::min<uint64_t>(n, free_list_.size());
    for (uint64_t i = 0; i < count; ++i) {
      taken->push_back(free_list_.back());
      free_list_.pop_back();
    }
    present_pages_ -= count;
    return count;
  }
  void BalloonReturn(const std::vector<PageNum>& pages) {
    free_list_.insert(free_list_.end(), pages.begin(), pages.end());
    present_pages_ += pages.size();
  }

  uint64_t free_pages() const { return free_list_.size(); }
  uint64_t present_pages() const { return present_pages_; }

 private:
  uint64_t present_pages_;
  std::vector<PageNum> free_list_;
};

// A seeded stream of allocations, frees, balloon takes and returns drives a
// node whose base lies above 2^32 and the 64-bit reference in lockstep:
// the shuffle and every page handed out must match.
TEST(NumaNode, OffsetFreeListMatches64BitReference) {
  constexpr PageNum kBase = (uint64_t{5} << 32) + 777;
  constexpr uint64_t kSpan = 3000;
  constexpr uint64_t kPresent = 2000;
  constexpr uint64_t kSeed = 0x5eed + 17;
  NumaNode node(1, kBase, kSpan, kPresent, kSeed);
  ReferenceNode64 ref(1, kBase, kPresent, kSeed);
  std::vector<PageNum> used;
  std::vector<PageNum> ballooned;
  Rng rng(0x77);
  int takes = 0;
  int returns = 0;
  for (int op = 0; op < 20000; ++op) {
    const uint64_t kind = rng.NextBelow(100);
    if (kind < 45) {
      const std::optional<PageNum> got = node.AllocPage();
      ASSERT_EQ(got, ref.AllocPage()) << "op " << op;
      if (got.has_value()) {
        ASSERT_TRUE(node.ContainsGpa(*got));
        used.push_back(*got);
      }
    } else if (kind < 85) {
      if (used.empty()) {
        continue;
      }
      const size_t pick = rng.NextBelow(used.size());
      const PageNum gpa = used[pick];
      used[pick] = used.back();
      used.pop_back();
      node.FreePage(gpa);
      ref.FreePage(gpa);
    } else if (kind < 93) {
      const uint64_t n = rng.NextBelow(64);
      std::vector<PageNum> got;
      std::vector<PageNum> want;
      ASSERT_EQ(node.BalloonTake(n, &got), ref.BalloonTake(n, &want)) << "op " << op;
      ASSERT_EQ(got, want) << "op " << op;
      ballooned.insert(ballooned.end(), got.begin(), got.end());
      takes += got.empty() ? 0 : 1;
    } else {
      // Return a random run of held pages, in a shuffled order.
      const size_t n = std::min<size_t>(ballooned.size(), rng.NextBelow(48));
      std::vector<PageNum> pages;
      for (size_t i = 0; i < n; ++i) {
        const size_t pick = rng.NextBelow(ballooned.size());
        pages.push_back(ballooned[pick]);
        ballooned[pick] = ballooned.back();
        ballooned.pop_back();
      }
      node.BalloonReturn(pages);
      ref.BalloonReturn(pages);
      returns += pages.empty() ? 0 : 1;
    }
    ASSERT_EQ(node.free_pages(), ref.free_pages()) << "op " << op;
    ASSERT_EQ(node.present_pages(), ref.present_pages()) << "op " << op;
  }
  EXPECT_GT(takes, 100);
  EXPECT_GT(returns, 100);
  // Drain both: the remaining order matches page for page.
  while (true) {
    const std::optional<PageNum> got = node.AllocPage();
    ASSERT_EQ(got, ref.AllocPage());
    if (!got.has_value()) {
      break;
    }
  }
}

// ---- AddressSpace ----------------------------------------------------------

TEST(AddressSpace, InitialLayout) {
  AddressSpace space;
  ASSERT_EQ(space.vmas().size(), 4u);  // code, data, stack, empty heap.
  EXPECT_EQ(space.brk(), AddressSpace::kStartBrk);
  uint64_t tracked = space.TrackedBytes();
  EXPECT_EQ(tracked, 0u) << "heap empty, no mmap yet";
}

TEST(AddressSpace, SbrkGrowsHeapUpward) {
  AddressSpace space;
  const uint64_t a = space.Sbrk(10 * kPageSize);
  EXPECT_EQ(a, AddressSpace::kStartBrk);
  const uint64_t b = space.Sbrk(5 * kPageSize);
  EXPECT_EQ(b, a + 10 * kPageSize);
  EXPECT_EQ(space.TrackedBytes(), 15 * kPageSize);
  const Vma* vma = space.FindVma(a);
  ASSERT_NE(vma, nullptr);
  EXPECT_EQ(vma->kind, VmaKind::kHeap);
  EXPECT_TRUE(vma->tracked);
}

TEST(AddressSpace, SbrkRoundsToPages) {
  AddressSpace space;
  space.Sbrk(1);
  EXPECT_EQ(space.brk(), AddressSpace::kStartBrk + kPageSize);
}

TEST(AddressSpace, MmapGrowsDownward) {
  AddressSpace space;
  const uint64_t a = space.Mmap(16 * kPageSize);
  const uint64_t b = space.Mmap(kPageSize);
  EXPECT_LT(b, a);
  EXPECT_LT(a + 16 * kPageSize, AddressSpace::kMmapBase + 1);
  const Vma* vma = space.FindVma(b);
  ASSERT_NE(vma, nullptr);
  EXPECT_EQ(vma->kind, VmaKind::kMmap);
  EXPECT_TRUE(vma->tracked);
}

TEST(AddressSpace, UntrackedSegmentsExcluded) {
  AddressSpace space;
  const Vma* code = space.FindVma(AddressSpace::kCodeStart);
  ASSERT_NE(code, nullptr);
  EXPECT_EQ(code->kind, VmaKind::kCode);
  EXPECT_FALSE(code->tracked);
  const Vma* stack = space.FindVma(AddressSpace::kStackTop - kPageSize);
  ASSERT_NE(stack, nullptr);
  EXPECT_EQ(stack->kind, VmaKind::kStack);
  EXPECT_FALSE(stack->tracked);
}

TEST(AddressSpace, FindVmaMissReturnsNull) {
  AddressSpace space;
  EXPECT_EQ(space.FindVma(0x1000), nullptr);
}

// ---- GuestKernel -----------------------------------------------------------

GuestKernelConfig SmallKernelConfig(uint64_t fmem = 64, uint64_t smem = 256) {
  GuestKernelConfig config;
  config.num_nodes = 2;
  config.node_span_pages = {fmem + smem, fmem + smem};
  config.node_present_pages = {fmem, smem};
  return config;
}

TEST(GuestKernel, NodeLayout) {
  GuestKernel kernel(SmallKernelConfig());
  EXPECT_EQ(kernel.num_nodes(), 2);
  EXPECT_EQ(kernel.node(0).gpa_base(), 0u);
  EXPECT_EQ(kernel.node(1).gpa_base(), 320u);
  EXPECT_EQ(kernel.NodeOfGpa(5), 0);
  EXPECT_EQ(kernel.NodeOfGpa(321), 1);
  EXPECT_EQ(kernel.NodeOfGpa(100000), -1);
}

TEST(GuestKernel, FaultAllocatesFmemFirst) {
  GuestKernel kernel(SmallKernelConfig());
  GuestProcess& proc = kernel.CreateProcess();
  double cost = 0.0;
  for (int i = 0; i < 64; ++i) {
    auto gpa = kernel.HandleFault(proc, static_cast<PageNum>(1000 + i), &cost);
    ASSERT_TRUE(gpa.has_value());
    EXPECT_EQ(kernel.NodeOfGpa(*gpa), 0) << "fault " << i;
  }
  // FMEM node exhausted: falls back to SMEM.
  auto gpa = kernel.HandleFault(proc, 2000, &cost);
  ASSERT_TRUE(gpa.has_value());
  EXPECT_EQ(kernel.NodeOfGpa(*gpa), 1);
  EXPECT_EQ(kernel.stats().fallback_allocs, 1u);
  EXPECT_GT(cost, 0.0);
}

TEST(GuestKernel, FaultMapsGptAndRmap) {
  GuestKernel kernel(SmallKernelConfig());
  GuestProcess& proc = kernel.CreateProcess();
  double cost = 0.0;
  auto gpa = kernel.HandleFault(proc, 777, &cost);
  ASSERT_TRUE(gpa.has_value());
  EXPECT_EQ(proc.gpt().Lookup(777).target, *gpa);
  const std::optional<RmapEntry> rmap = kernel.Rmap(*gpa);
  ASSERT_TRUE(rmap.has_value());
  EXPECT_EQ(rmap->pid, proc.pid());
  EXPECT_EQ(rmap->vpn, 777u);
  EXPECT_EQ(kernel.mapped_pages(), 1u);
}

TEST(GuestKernel, OomWhenAllNodesDry) {
  GuestKernel kernel(SmallKernelConfig(2, 2));
  GuestProcess& proc = kernel.CreateProcess();
  double cost = 0.0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(kernel.HandleFault(proc, static_cast<PageNum>(i), &cost).has_value());
  }
  EXPECT_FALSE(kernel.HandleFault(proc, 99, &cost).has_value());
  EXPECT_EQ(kernel.stats().oom_failures, 1u);
}

TEST(GuestKernel, OomPathChargesZonelistWalk) {
  // Regression: the failed fallback walk used to charge nothing, making an
  // OOM'd allocation cheaper than a successful one.
  GuestKernel kernel(SmallKernelConfig(2, 2));
  GuestProcess& proc = kernel.CreateProcess();
  double cost = 0.0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(kernel.HandleFault(proc, static_cast<PageNum>(i), &cost).has_value());
  }
  double oom_cost = 0.0;
  EXPECT_FALSE(kernel.AllocGpa(0, /*allow_fallback=*/true, &oom_cost).has_value());
  EXPECT_GT(oom_cost, 0.0) << "the zonelist walk happened; it must be charged";
  // Without fallback there is no walk, so no charge.
  double direct_cost = 0.0;
  EXPECT_FALSE(kernel.AllocGpa(0, /*allow_fallback=*/false, &direct_cost).has_value());
  EXPECT_EQ(direct_cost, 0.0);
}

TEST(GuestKernel, OnPageMovedUpdatesRmap) {
  GuestKernel kernel(SmallKernelConfig());
  GuestProcess& proc = kernel.CreateProcess();
  double cost = 0.0;
  auto old_gpa = kernel.HandleFault(proc, 10, &cost);
  auto new_gpa = kernel.AllocGpa(1, false, &cost);
  ASSERT_TRUE(new_gpa.has_value());
  kernel.OnPageMoved(*old_gpa, *new_gpa);
  EXPECT_FALSE(kernel.Rmap(*old_gpa).has_value());
  const std::optional<RmapEntry> rmap = kernel.Rmap(*new_gpa);
  ASSERT_TRUE(rmap.has_value());
  EXPECT_EQ(rmap->vpn, 10u);
}

TEST(GuestKernel, OnPagesSwappedExchangesOwners) {
  GuestKernel kernel(SmallKernelConfig());
  GuestProcess& proc = kernel.CreateProcess();
  double cost = 0.0;
  auto gpa_a = kernel.HandleFault(proc, 1, &cost);
  auto gpa_b = kernel.HandleFault(proc, 2, &cost);
  kernel.OnPagesSwapped(*gpa_a, *gpa_b);
  EXPECT_EQ(kernel.Rmap(*gpa_a)->vpn, 2u);
  EXPECT_EQ(kernel.Rmap(*gpa_b)->vpn, 1u);
}

TEST(GuestKernel, PickVictimFifoOrder) {
  GuestKernel kernel(SmallKernelConfig());
  GuestProcess& proc = kernel.CreateProcess();
  double cost = 0.0;
  auto first = kernel.HandleFault(proc, 100, &cost);
  kernel.HandleFault(proc, 101, &cost);
  auto victim = kernel.PickVictim(0);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, *first) << "oldest allocation demoted first";
}

TEST(GuestKernel, PickVictimSkipsFreedPages) {
  GuestKernel kernel(SmallKernelConfig());
  GuestProcess& proc = kernel.CreateProcess();
  double cost = 0.0;
  auto first = kernel.HandleFault(proc, 100, &cost);
  auto second = kernel.HandleFault(proc, 101, &cost);
  proc.gpt().Unmap(100);
  kernel.FreeGpa(*first);
  auto victim = kernel.PickVictim(0);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, *second);
}

TEST(GuestKernel, PickVictimEmptyNode) {
  GuestKernel kernel(SmallKernelConfig());
  EXPECT_FALSE(kernel.PickVictim(0).has_value());
}

// The reverse map and victim FIFOs as they stood before the rmap became a
// flat array: one std::map entry per mapped gPA.
class ReferenceRmap {
 public:
  explicit ReferenceRmap(const GuestKernel& kernel)
      : kernel_(kernel), fifo_(static_cast<size_t>(kernel.num_nodes())) {}

  void Record(PageNum gpa, int pid, PageNum vpn) {
    rmap_[gpa] = RmapEntry{pid, vpn};
    fifo_[static_cast<size_t>(kernel_.NodeOfGpa(gpa))].push_back(gpa);
  }
  void Moved(PageNum old_gpa, PageNum new_gpa) {
    const RmapEntry entry = rmap_.at(old_gpa);
    rmap_.erase(old_gpa);
    rmap_[new_gpa] = entry;
    fifo_[static_cast<size_t>(kernel_.NodeOfGpa(new_gpa))].push_back(new_gpa);
  }
  void Swapped(PageNum gpa_a, PageNum gpa_b) { std::swap(rmap_.at(gpa_a), rmap_.at(gpa_b)); }
  void Freed(PageNum gpa) { rmap_.erase(gpa); }

  std::optional<PageNum> PickVictim(int node) {
    std::deque<PageNum>& fifo = fifo_[static_cast<size_t>(node)];
    while (!fifo.empty()) {
      const PageNum gpa = fifo.front();
      fifo.pop_front();
      if (rmap_.count(gpa) != 0 && kernel_.NodeOfGpa(gpa) == node) {
        fifo.push_back(gpa);
        return gpa;
      }
    }
    return std::nullopt;
  }

  const std::map<PageNum, RmapEntry>& rmap() const { return rmap_; }

 private:
  const GuestKernel& kernel_;
  std::map<PageNum, RmapEntry> rmap_;
  std::vector<std::deque<PageNum>> fifo_;
};

void ExpectSameRmap(const GuestKernel& kernel, const ReferenceRmap& ref, PageNum gpa_end,
                    const std::string& at) {
  ASSERT_EQ(kernel.mapped_pages(), ref.rmap().size()) << at;
  for (PageNum gpa = 0; gpa < gpa_end; ++gpa) {
    const std::optional<RmapEntry> got = kernel.Rmap(gpa);
    const auto want = ref.rmap().find(gpa);
    ASSERT_EQ(got.has_value(), want != ref.rmap().end()) << at << ", gpa " << gpa;
    if (got.has_value()) {
      ASSERT_EQ(got->pid, want->second.pid) << at << ", gpa " << gpa;
      ASSERT_EQ(got->vpn, want->second.vpn) << at << ", gpa " << gpa;
    }
  }
}

// A seeded stream of faults, adoptions, moves, swaps, frees, discards and
// victim picks, with the GPTs kept consistent, drives the kernel and the
// std::map reference in lockstep. Small shuffled nodes make allocation
// scatter over the gPA space and run dry; the vpns span the whole 36-bit
// page space so the packed entries carry their top bits.
TEST(GuestKernel, FlatRmapMatchesMapReference) {
  GuestKernelConfig config = SmallKernelConfig(48, 96);
  config.free_list_shuffle_seed = 11;
  GuestKernel kernel(config);
  ReferenceRmap ref(kernel);
  std::vector<GuestProcess*> procs = {&kernel.CreateProcess(), &kernel.CreateProcess(),
                                      &kernel.CreateProcess()};
  const PageNum gpa_end = kernel.node(kernel.num_nodes() - 1).gpa_end() + 8;
  Rng rng(0x4a9);
  // A mapped gPA drawn uniformly, with its owner.
  auto pick_mapped = [&](PageNum* gpa, GuestProcess** proc, PageNum* vpn) {
    auto it = ref.rmap().begin();
    std::advance(it, static_cast<long>(rng.NextBelow(ref.rmap().size())));
    *gpa = it->first;
    *proc = kernel.process(it->second.pid);
    *vpn = it->second.vpn;
  };
  int victims = 0;
  int moves = 0;
  int swaps = 0;
  double cost = 0.0;
  constexpr int kOps = 6000;
  for (int op = 0; op < kOps; ++op) {
    const std::string at = "op " + std::to_string(op);
    const uint64_t kind = rng.NextBelow(100);
    if (kind < 35) {
      GuestProcess& proc = *procs[rng.NextBelow(procs.size())];
      const PageNum vpn = rng.NextBool(0.1) ? PageTable::kMaxPage - 1 - rng.NextBelow(64)
                                            : rng.NextBelow(512);
      if (proc.gpt().IsMapped(vpn)) {
        continue;
      }
      const bool adopt = kind >= 25;
      const std::optional<PageNum> gpa =
          adopt ? kernel.AdoptPage(proc, vpn, static_cast<int>(rng.NextBelow(2)), &cost)
                : kernel.HandleFault(proc, vpn, &cost);
      if (gpa.has_value()) {
        ref.Record(*gpa, proc.pid(), vpn);
      }
    } else if (ref.rmap().empty()) {
      continue;
    } else if (kind < 50) {
      PageNum old_gpa;
      GuestProcess* proc;
      PageNum vpn;
      pick_mapped(&old_gpa, &proc, &vpn);
      const int dst = 1 - kernel.NodeOfGpa(old_gpa);
      const std::optional<PageNum> new_gpa = kernel.AllocGpa(dst, false, &cost);
      if (!new_gpa.has_value()) {
        continue;
      }
      ASSERT_TRUE(proc->gpt().Remap(vpn, *new_gpa));
      kernel.OnPageMoved(old_gpa, *new_gpa);
      kernel.FreeGpa(old_gpa);
      ref.Moved(old_gpa, *new_gpa);
      ++moves;
    } else if (kind < 60) {
      PageNum gpa_a, gpa_b, vpn_a, vpn_b;
      GuestProcess *proc_a, *proc_b;
      pick_mapped(&gpa_a, &proc_a, &vpn_a);
      pick_mapped(&gpa_b, &proc_b, &vpn_b);
      if (gpa_a == gpa_b) {
        continue;
      }
      ASSERT_TRUE(proc_a->gpt().Remap(vpn_a, gpa_b));
      ASSERT_TRUE(proc_b->gpt().Remap(vpn_b, gpa_a));
      kernel.OnPagesSwapped(gpa_a, gpa_b);
      ref.Swapped(gpa_a, gpa_b);
      ++swaps;
    } else if (kind < 72) {
      PageNum gpa;
      GuestProcess* proc;
      PageNum vpn;
      pick_mapped(&gpa, &proc, &vpn);
      if (rng.NextBool(0.5)) {
        kernel.DiscardPage(*proc, vpn, gpa);
      } else {
        ASSERT_EQ(proc->gpt().Unmap(vpn), gpa);
        kernel.FreeGpa(gpa);
      }
      ref.Freed(gpa);
    } else {
      const int node = static_cast<int>(rng.NextBelow(2));
      const std::optional<PageNum> victim = kernel.PickVictim(node);
      ASSERT_EQ(victim, ref.PickVictim(node)) << at << ": PickVictim(" << node << ")";
      victims += victim.has_value() ? 1 : 0;
    }
    ASSERT_EQ(kernel.mapped_pages(), ref.rmap().size()) << at;
    if (op % 16 == 0) {
      ExpectSameRmap(kernel, ref, gpa_end, at);
    }
  }
  ExpectSameRmap(kernel, ref, gpa_end, "end");
  EXPECT_GT(victims, 500);
  EXPECT_GT(moves, 100);
  EXPECT_GT(swaps, 100);
  EXPECT_GT(kernel.stats().oom_failures, 0u) << "the nodes never ran dry";
}

// The guest kernel's 32-bit free lists and allocation FIFOs against the
// 64-bit transcriptions above: faults, moves and frees through the kernel,
// balloon takes and returns on its nodes, and victim picks must hand out
// the same gPAs in the same order.
TEST(GuestKernel, OffsetListsMatch64BitReference) {
  GuestKernelConfig config = SmallKernelConfig(160, 320);
  config.node_span_pages = {480, 480};
  config.free_list_shuffle_seed = 23;
  GuestKernel kernel(config);
  std::vector<ReferenceNode64> nodes;
  for (int n = 0; n < 2; ++n) {
    nodes.emplace_back(n, kernel.node(n).gpa_base(),
                       config.node_present_pages[static_cast<size_t>(n)],
                       config.free_list_shuffle_seed);
  }
  // The 64-bit AllocGpa: the preferred node, then the others in id order.
  auto ref_alloc = [&](int preferred, bool fallback) -> std::optional<PageNum> {
    if (auto gpa = nodes[static_cast<size_t>(preferred)].AllocPage()) {
      return gpa;
    }
    for (int n = 0; fallback && n < 2; ++n) {
      if (n == preferred) {
        continue;
      }
      if (auto gpa = nodes[static_cast<size_t>(n)].AllocPage()) {
        return gpa;
      }
    }
    return std::nullopt;
  };
  ReferenceRmap ref(kernel);
  GuestProcess& proc = kernel.CreateProcess();
  std::vector<std::pair<PageNum, PageNum>> mapped;  // (vpn, gpa)
  std::vector<std::vector<PageNum>> ballooned(2);
  PageNum next_vpn = 1;
  Rng rng(0x3217);
  double cost = 0.0;
  int victims = 0;
  for (int op = 0; op < 12000; ++op) {
    const std::string at = "op " + std::to_string(op);
    const uint64_t kind = rng.NextBelow(100);
    if (kind < 35) {
      const PageNum vpn = next_vpn++;
      const std::optional<PageNum> gpa = kernel.HandleFault(proc, vpn, &cost);
      ASSERT_EQ(gpa, ref_alloc(0, true)) << at;
      if (gpa.has_value()) {
        ref.Record(*gpa, proc.pid(), vpn);
        mapped.emplace_back(vpn, *gpa);
      }
    } else if (kind < 50 && !mapped.empty()) {
      const size_t pick = rng.NextBelow(mapped.size());
      auto& [vpn, old_gpa] = mapped[pick];
      const int dst = 1 - kernel.NodeOfGpa(old_gpa);
      const std::optional<PageNum> new_gpa = kernel.AllocGpa(dst, false, &cost);
      ASSERT_EQ(new_gpa, ref_alloc(dst, false)) << at;
      if (!new_gpa.has_value()) {
        continue;
      }
      ASSERT_TRUE(proc.gpt().Remap(vpn, *new_gpa));
      kernel.OnPageMoved(old_gpa, *new_gpa);
      kernel.FreeGpa(old_gpa);
      ref.Moved(old_gpa, *new_gpa);
      nodes[static_cast<size_t>(kernel.NodeOfGpa(old_gpa))].FreePage(old_gpa);
      old_gpa = *new_gpa;
    } else if (kind < 65 && !mapped.empty()) {
      const size_t pick = rng.NextBelow(mapped.size());
      const auto [vpn, gpa] = mapped[pick];
      mapped[pick] = mapped.back();
      mapped.pop_back();
      ASSERT_EQ(proc.gpt().Unmap(vpn), gpa);
      kernel.FreeGpa(gpa);
      ref.Freed(gpa);
      nodes[static_cast<size_t>(kernel.NodeOfGpa(gpa))].FreePage(gpa);
    } else if (kind < 72) {
      const int n = static_cast<int>(rng.NextBelow(2));
      const uint64_t count = rng.NextBelow(24);
      std::vector<PageNum> got;
      std::vector<PageNum> want;
      ASSERT_EQ(kernel.node(n).BalloonTake(count, &got),
                nodes[static_cast<size_t>(n)].BalloonTake(count, &want))
          << at;
      ASSERT_EQ(got, want) << at;
      ballooned[static_cast<size_t>(n)].insert(ballooned[static_cast<size_t>(n)].end(),
                                               got.begin(), got.end());
    } else if (kind < 79) {
      const int n = static_cast<int>(rng.NextBelow(2));
      std::vector<PageNum>& held = ballooned[static_cast<size_t>(n)];
      const size_t count = std::min<size_t>(held.size(), rng.NextBelow(24));
      const std::vector<PageNum> pages(held.end() - static_cast<long>(count), held.end());
      held.resize(held.size() - count);
      kernel.node(n).BalloonReturn(pages);
      nodes[static_cast<size_t>(n)].BalloonReturn(pages);
    } else {
      const int n = static_cast<int>(rng.NextBelow(2));
      const std::optional<PageNum> victim = kernel.PickVictim(n);
      ASSERT_EQ(victim, ref.PickVictim(n)) << at << ": PickVictim(" << n << ")";
      victims += victim.has_value() ? 1 : 0;
    }
    for (int n = 0; n < 2; ++n) {
      ASSERT_EQ(kernel.node(n).free_pages(), nodes[static_cast<size_t>(n)].free_pages()) << at;
      ASSERT_EQ(kernel.node(n).present_pages(), nodes[static_cast<size_t>(n)].present_pages())
          << at;
    }
  }
  EXPECT_GT(victims, 1000);
  EXPECT_GT(kernel.stats().fallback_allocs, 0u);
  EXPECT_GT(kernel.stats().oom_failures, 0u) << "the nodes never ran dry";
}

TEST(GuestKernel, ContextSwitchHooksCharge) {
  GuestKernel kernel(SmallKernelConfig());
  int calls = 0;
  kernel.RegisterContextSwitchHook([&](int vcpu, Nanos now) {
    EXPECT_EQ(vcpu, 3);
    EXPECT_EQ(now, 500u);
    ++calls;
    return 123.0;
  });
  kernel.RegisterContextSwitchHook([&](int, Nanos) { return 1.0; });
  EXPECT_DOUBLE_EQ(kernel.OnContextSwitch(3, 500), 124.0);
  EXPECT_EQ(calls, 1);
}

// ---- BoundedQueue ----------------------------------------------------------

TEST(BoundedQueue, PushDrainSingleThread) {
  BoundedQueue<int> q(8);
  EXPECT_TRUE(q.Drain().empty());
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_EQ(q.Drain(), (std::vector<int>{1, 2}));
  EXPECT_TRUE(q.Drain().empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueue, FullDropsAndCounts) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(q.Push(i));
  }
  EXPECT_FALSE(q.Push(99));
  EXPECT_EQ(q.dropped(), 1u);
  EXPECT_EQ(q.Drain(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(q.Push(100));
  EXPECT_EQ(q.dropped(), 1u);
}

TEST(BoundedQueue, DrainKeepsFifoOrder) {
  BoundedQueue<int> q(16);
  for (int i = 0; i < 10; ++i) {
    q.Push(i);
  }
  const std::vector<int> out = q.Drain();
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], i);
  }
}

// Demeter's sample queue: the 65,536th sample is kept, the next is shed,
// and a drain makes room again.
TEST(BoundedQueue, DropsOnlyPastTheCapAndResumesAfterDrain) {
  constexpr uint64_t kCap = 1 << 16;
  BoundedQueue<uint64_t> q(kCap);
  for (uint64_t i = 0; i < kCap; ++i) {
    ASSERT_TRUE(q.Push(i)) << i;
  }
  EXPECT_EQ(q.dropped(), 0u);
  EXPECT_FALSE(q.Push(kCap));
  EXPECT_EQ(q.dropped(), 1u);
  EXPECT_EQ(q.size(), kCap);
  const std::vector<uint64_t> out = q.Drain();
  ASSERT_EQ(out.size(), kCap);
  for (uint64_t i = 0; i < kCap; ++i) {
    ASSERT_EQ(out[i], i);
  }
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.Push(7));
  EXPECT_EQ(q.Drain(), (std::vector<uint64_t>{7}));
  EXPECT_EQ(q.dropped(), 1u);
}

TEST(BoundedQueue, AllocatesNothingUntilThePushes) {
  BoundedQueue<uint64_t> q(1 << 16);
  EXPECT_EQ(q.allocated(), 0u);
  q.Push(1);
  EXPECT_GE(q.allocated(), 1u);
  EXPECT_LT(q.allocated(), 16u) << "storage follows the depth, not the cap";
  q.Drain();
  EXPECT_EQ(q.allocated(), 0u) << "a drain hands the storage to the caller";
}

}  // namespace
}  // namespace demeter
