#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/mmu/page_table.h"
#include "src/mmu/tlb.h"
#include "src/mmu/walker.h"

namespace demeter {
namespace {

TEST(PageTable, MapLookupUnmap) {
  PageTable pt;
  EXPECT_TRUE(pt.Map(100, 555, true));
  EXPECT_FALSE(pt.Map(100, 777, true)) << "remap via Map must fail";
  auto r = pt.Lookup(100);
  EXPECT_TRUE(r.present);
  EXPECT_EQ(r.target, 555u);
  EXPECT_EQ(pt.mapped_count(), 1u);
  EXPECT_EQ(pt.Unmap(100), 555u);
  EXPECT_FALSE(pt.Lookup(100).present);
  EXPECT_EQ(pt.mapped_count(), 0u);
  EXPECT_EQ(pt.Unmap(100), ~0ULL);
}

TEST(PageTable, RemapChangesTarget) {
  PageTable pt;
  pt.Map(7, 1, true);
  EXPECT_TRUE(pt.Remap(7, 2));
  EXPECT_EQ(pt.Lookup(7).target, 2u);
  EXPECT_FALSE(pt.Remap(8, 3));
}

// Regression: Remap used to rebuild the PTE from scratch, silently clearing
// Accessed and Dirty — every migration of a dirty page lost the "written
// since last writeback/track" fact (Linux migration entries preserve both).
TEST(PageTable, RemapPreservesAccessedAndDirty) {
  PageTable pt;
  pt.Map(7, 1, true);
  pt.Translate(7, /*is_write=*/true, /*set_bits=*/true);  // Sets A and D.
  ASSERT_TRUE(pt.Remap(7, 2));
  const auto r = pt.Lookup(7);
  EXPECT_TRUE(r.present);
  EXPECT_EQ(r.target, 2u);
  EXPECT_TRUE(r.was_accessed) << "migration must not lose the young bit";
  EXPECT_TRUE(r.was_dirty) << "migration must not lose the dirty bit";
  EXPECT_EQ(pt.remap_count(), 1u);
  EXPECT_EQ(pt.remap_dirty_lost(), 0u);
}

TEST(PageTable, RemapDoesNotInventDirtiness) {
  PageTable pt;
  pt.Map(7, 1, true);
  pt.Translate(7, /*is_write=*/false, /*set_bits=*/true);  // A only.
  ASSERT_TRUE(pt.Remap(7, 2));
  const auto r = pt.Lookup(7);
  EXPECT_TRUE(r.was_accessed);
  EXPECT_FALSE(r.was_dirty) << "a clean page stays clean across migration";
  EXPECT_EQ(pt.remap_dirty_lost(), 0u);
}

TEST(PageTable, TranslateSetsAccessedAndDirty) {
  PageTable pt;
  pt.Map(42, 9, true);
  auto r1 = pt.Translate(42, /*is_write=*/false, /*set_bits=*/true);
  EXPECT_TRUE(r1.present);
  EXPECT_FALSE(r1.was_accessed) << "first walk sees clear A bit";
  auto r2 = pt.Translate(42, /*is_write=*/true, /*set_bits=*/true);
  EXPECT_TRUE(r2.was_accessed);
  EXPECT_FALSE(r2.was_dirty);
  auto r3 = pt.Lookup(42);
  EXPECT_TRUE(r3.was_accessed);
  EXPECT_TRUE(r3.was_dirty);
}

TEST(PageTable, TranslateWithoutSetBitsIsPure) {
  PageTable pt;
  pt.Map(42, 9, true);
  pt.Translate(42, true, /*set_bits=*/false);
  EXPECT_FALSE(pt.Lookup(42).was_accessed);
  EXPECT_FALSE(pt.Lookup(42).was_dirty);
}

TEST(PageTable, TestAndClearAccessed) {
  PageTable pt;
  pt.Map(1, 2, true);
  EXPECT_FALSE(pt.TestAndClearAccessed(1));
  pt.Translate(1, false, true);
  EXPECT_TRUE(pt.TestAndClearAccessed(1));
  EXPECT_FALSE(pt.TestAndClearAccessed(1)) << "clear must stick";
  EXPECT_FALSE(pt.TestAndClearAccessed(999)) << "unmapped";
}

TEST(PageTable, TestAndClearDirty) {
  PageTable pt;
  pt.Map(1, 2, true);
  pt.Translate(1, true, true);
  EXPECT_TRUE(pt.TestAndClearDirty(1));
  EXPECT_FALSE(pt.TestAndClearDirty(1));
}

TEST(PageTable, LevelsTouched) {
  PageTable pt;
  pt.Map(0, 1, true);
  EXPECT_EQ(pt.Translate(0, false, false).levels_touched, PageTable::kLevels);
  // A page in a completely unpopulated subtree stops at level 1.
  EXPECT_EQ(pt.Translate(PageTable::kMaxPage - 1, false, false).levels_touched, 1);
}

// Layout guard: a sparse table spanning two level-1 subtrees, two level-2
// subtrees and two leaves under one level-2 node, plus the last page. The
// counts were produced by the layout that kept a second 512-pointer array
// per node beside the entries; scan costs, walk depths and mapping results
// must not depend on how a node stores its children.
TEST(PageTable, SparseLayoutCountsArePinned) {
  constexpr PageNum kLeafSpan = 1ULL << 9;   // Pages under one leaf node.
  constexpr PageNum kL2Span = 1ULL << 18;    // Pages under one level-2 node.
  constexpr PageNum kL1Span = 1ULL << 27;    // Pages under one level-1 node.
  const std::vector<PageNum> pages = {0, 5, kLeafSpan, kL2Span, kL1Span + 3,
                                      PageTable::kMaxPage - 1};
  PageTable pt;
  for (size_t i = 0; i < pages.size(); ++i) {
    ASSERT_TRUE(pt.Map(pages[i], 100 + i, /*writable=*/true));
  }
  EXPECT_EQ(pt.mapped_count(), 6u);

  std::vector<PageNum> seen;
  auto record = [&](PageNum vpn, uint64_t, bool, bool) { seen.push_back(vpn); };
  // Full range: 3 root + 3 level-1 + 4 level-2 child entries, 5 leaves x 512.
  EXPECT_EQ(pt.ForEachPresent(0, PageTable::kMaxPage, record), 2572u);
  EXPECT_EQ(seen, pages);
  seen.clear();
  EXPECT_EQ(pt.ForEachPresent(3, kL2Span + 1, record), 1028u);
  EXPECT_EQ(seen, (std::vector<PageNum>{5, kLeafSpan, kL2Span}));

  // A miss stops at the first absent level; a leaf miss walks all four.
  EXPECT_EQ(pt.Translate(2 * kL1Span, false, false).levels_touched, 1);
  EXPECT_EQ(pt.Translate(2 * kL2Span, false, false).levels_touched, 2);
  EXPECT_EQ(pt.Translate(2 * kLeafSpan, false, false).levels_touched, 3);
  const auto leaf_miss = pt.Translate(7, false, false);
  EXPECT_FALSE(leaf_miss.present);
  EXPECT_EQ(leaf_miss.levels_touched, 4);
  EXPECT_EQ(pt.Translate(PageTable::kMaxPage, false, false).levels_touched, 0);

  pt.Translate(5, /*is_write=*/true, /*set_bits=*/true);
  pt.Translate(PageTable::kMaxPage - 1, /*is_write=*/false, /*set_bits=*/true);
  int accessed = 0;
  int dirty = 0;
  EXPECT_EQ(pt.ScanAndClearAccessed(0, PageTable::kMaxPage,
                                    [&](PageNum, uint64_t, bool a, bool d) {
                                      accessed += a ? 1 : 0;
                                      dirty += d ? 1 : 0;
                                    }),
            2572u);
  EXPECT_EQ(accessed, 2);
  EXPECT_EQ(dirty, 1);
  EXPECT_EQ(pt.ScanAndClearAccessed(kL1Span, PageTable::kMaxPage,
                                    [&](PageNum, uint64_t, bool a, bool) { EXPECT_FALSE(a); }),
            1030u);

  const auto far = pt.Lookup(kL1Span + 3);
  EXPECT_TRUE(far.present);
  EXPECT_EQ(far.target, 104u);
  EXPECT_EQ(far.levels_touched, 4);
  EXPECT_EQ(pt.Lookup(2 * kLeafSpan).levels_touched, 0);
  const auto last = pt.Lookup(PageTable::kMaxPage - 1);
  EXPECT_EQ(last.target, 105u);
  EXPECT_FALSE(last.was_accessed);

  EXPECT_TRUE(pt.Remap(kL2Span, 999));
  EXPECT_EQ(pt.Lookup(kL2Span).target, 999u);
  EXPECT_FALSE(pt.Remap(2 * kL2Span, 1));
  const auto five = pt.Lookup(5);
  EXPECT_TRUE(five.was_dirty);
  EXPECT_EQ(pt.Unmap(5), 101u);
  EXPECT_EQ(pt.Unmap(5), ~0ULL);
  EXPECT_EQ(pt.Unmap(2 * kL1Span), ~0ULL);
  EXPECT_EQ(pt.mapped_count(), 5u);
  // Unmapping frees no node: the scan cost and walk depth stay put.
  EXPECT_EQ(pt.Translate(5, false, false).levels_touched, 4);
  seen.clear();
  EXPECT_EQ(pt.ForEachPresent(0, PageTable::kMaxPage, record), 2572u);
  EXPECT_EQ(seen, (std::vector<PageNum>{0, kLeafSpan, kL2Span, kL1Span + 3,
                                        PageTable::kMaxPage - 1}));
}

// The memoized leaf-node cache must be invisible: repeated translations
// return identical results (including levels_touched, which feeds cost
// accounting), and structural changes are never served stale.
TEST(PageTable, WalkCacheRepeatTranslateIsIdentical) {
  PageTable pt;
  pt.Map(12345, 9, true);
  const auto cold = pt.Translate(12345, true, true);
  const auto warm = pt.Translate(12345, true, true);  // Cache hit path.
  EXPECT_EQ(warm.present, cold.present);
  EXPECT_EQ(warm.target, cold.target);
  EXPECT_EQ(warm.levels_touched, cold.levels_touched);
  EXPECT_EQ(warm.levels_touched, PageTable::kLevels);
}

TEST(PageTable, WalkCacheSeesUnmapImmediately) {
  PageTable pt;
  pt.Map(12345, 9, true);
  pt.Translate(12345, false, false);  // Warm the leaf cache.
  pt.Unmap(12345);
  const auto r = pt.Translate(12345, false, false);
  EXPECT_FALSE(r.present);
  // The subtree still exists (nodes are never freed), so the walk still
  // touches every level — cost accounting is structure-based, not
  // presence-based.
  EXPECT_EQ(r.levels_touched, PageTable::kLevels);
}

TEST(PageTable, WalkCacheSurvivesMapIntoNewSubtree) {
  PageTable pt;
  pt.Map(0, 1, true);
  pt.Translate(0, false, false);  // Cache leaf for vpn 0.
  // Mapping far away allocates nodes -> structure epoch bumps; the cached
  // leaf for vpn 0 must be re-validated, not served stale or wrongly missed.
  pt.Map(PageTable::kMaxPage - 1, 2, true);
  EXPECT_TRUE(pt.Translate(0, false, false).present);
  EXPECT_TRUE(pt.Translate(PageTable::kMaxPage - 1, false, false).present);
}

TEST(PageTable, ForEachPresentVisitsRange) {
  PageTable pt;
  for (PageNum p = 10; p < 20; ++p) {
    pt.Map(p, p * 2, true);
  }
  pt.Map(1000000, 5, true);
  std::vector<PageNum> seen;
  pt.ForEachPresent(0, 100, [&](PageNum vpn, uint64_t target, bool, bool) {
    seen.push_back(vpn);
    EXPECT_EQ(target, vpn * 2);
  });
  ASSERT_EQ(seen.size(), 10u);
  EXPECT_EQ(seen.front(), 10u);
  EXPECT_EQ(seen.back(), 19u);
}

// A released page table (its VM left the host) finds nothing, as the
// emptied one did, keeps its remap counters, and can map again.
TEST(PageTable, ReleasedTableFindsNothingAndKeepsCounters) {
  PageTable pt;
  for (PageNum p = 0; p < 2048; p += 3) {
    ASSERT_TRUE(pt.Map(p, p + 7, true));
  }
  ASSERT_TRUE(pt.Map(PageTable::kMaxPage - 1, 5, true));
  ASSERT_TRUE(pt.Remap(3, 99));
  ASSERT_TRUE(pt.Translate(3, /*is_write=*/true, /*set_bits=*/true).present);  // Warm cache.
  std::vector<PageNum> mapped;
  pt.ForEachPresent(0, PageTable::kMaxPage,
                    [&](PageNum vpn, uint64_t, bool, bool) { mapped.push_back(vpn); });
  for (PageNum vpn : mapped) {
    pt.Unmap(vpn);
  }
  ASSERT_EQ(pt.mapped_count(), 0u);
  pt.ReleaseStorage();
  EXPECT_EQ(pt.remap_count(), 1u);
  EXPECT_EQ(pt.remap_dirty_lost(), 0u);
  for (PageNum vpn : mapped) {
    ASSERT_FALSE(pt.Lookup(vpn).present) << "vpn " << vpn;
    ASSERT_FALSE(pt.Translate(vpn, false, true).present) << "vpn " << vpn;
    ASSERT_FALSE(pt.TestAndClearAccessed(vpn));
  }
  int visited = 0;
  pt.ForEachPresent(0, PageTable::kMaxPage, [&](PageNum, uint64_t, bool, bool) { ++visited; });
  pt.ScanAndClearAccessed(0, PageTable::kMaxPage,
                          [&](PageNum, uint64_t, bool, bool) { ++visited; });
  EXPECT_EQ(visited, 0);
  EXPECT_FALSE(pt.Remap(3, 100));
  EXPECT_EQ(pt.remap_count(), 1u);
  // Nothing stale survives in the walk cache: a fresh mapping translates.
  ASSERT_TRUE(pt.Map(3, 11, true));
  EXPECT_EQ(pt.Translate(3, false, true).target, 11u);
  EXPECT_EQ(pt.Lookup(3).target, 11u);
}

TEST(PageTable, ReleasingAMappedTableAborts) {
  PageTable pt;
  pt.Map(1, 1, true);
  EXPECT_DEATH(pt.ReleaseStorage(), "still maps pages");
}

TEST(PageTable, ForEachPresentRespectsBounds) {
  PageTable pt;
  for (PageNum p = 0; p < 100; ++p) {
    pt.Map(p, p, true);
  }
  int count = 0;
  pt.ForEachPresent(25, 75, [&](PageNum, uint64_t, bool, bool) { ++count; });
  EXPECT_EQ(count, 50);
}

TEST(PageTable, ScanAndClearAccessedReportsAndClears) {
  PageTable pt;
  for (PageNum p = 0; p < 50; ++p) {
    pt.Map(p, p, true);
  }
  for (PageNum p = 0; p < 50; p += 2) {
    pt.Translate(p, false, true);
  }
  int accessed = 0;
  pt.ScanAndClearAccessed(0, 50, [&](PageNum, uint64_t, bool a, bool) {
    if (a) {
      ++accessed;
    }
  });
  EXPECT_EQ(accessed, 25);
  // Second scan: all clear.
  accessed = 0;
  pt.ScanAndClearAccessed(0, 50, [&](PageNum, uint64_t, bool a, bool) {
    if (a) {
      ++accessed;
    }
  });
  EXPECT_EQ(accessed, 0);
}

TEST(PageTable, ScanCostScalesWithMappedPages) {
  PageTable small;
  PageTable large;
  for (PageNum p = 0; p < 10; ++p) {
    small.Map(p, p, true);
  }
  for (PageNum p = 0; p < 10000; ++p) {
    large.Map(p, p, true);
  }
  const uint64_t small_cost = small.ScanAndClearAccessed(0, PageTable::kMaxPage,
                                                         [](PageNum, uint64_t, bool, bool) {});
  const uint64_t large_cost = large.ScanAndClearAccessed(0, PageTable::kMaxPage,
                                                         [](PageNum, uint64_t, bool, bool) {});
  // 10 pages fit in one 512-entry leaf node; 10000 pages span ~20 leaf
  // nodes, each scanned in full (as hardware page-table scans do).
  EXPECT_GT(large_cost, small_cost * 15);
}

TEST(PageTable, SparseRandomPropertyCheck) {
  PageTable pt;
  std::map<PageNum, uint64_t> model;
  Rng rng(77);
  for (int i = 0; i < 20000; ++i) {
    const PageNum vpn = rng.NextBelow(PageTable::kMaxPage);
    const uint64_t target = rng.Next() & 0xffffffffff;
    if (pt.Map(vpn, target, true)) {
      EXPECT_TRUE(model.emplace(vpn, target).second);
    } else {
      EXPECT_TRUE(model.count(vpn));
    }
  }
  EXPECT_EQ(pt.mapped_count(), model.size());
  for (const auto& [vpn, target] : model) {
    auto r = pt.Lookup(vpn);
    ASSERT_TRUE(r.present);
    EXPECT_EQ(r.target, target);
  }
  // Full-range visitation sees exactly the model.
  size_t visited = 0;
  pt.ForEachPresent(0, PageTable::kMaxPage, [&](PageNum vpn, uint64_t target, bool, bool) {
    ++visited;
    auto it = model.find(vpn);
    ASSERT_NE(it, model.end());
    EXPECT_EQ(it->second, target);
  });
  EXPECT_EQ(visited, model.size());
}

// Regression: only Map checked the 36-bit bound. Every other entry point
// indexed the radix tree with the page number's high bits masked off, so
// with vpn 5 mapped, 5 + kMaxPage read, walked, unmapped and remapped vpn 5.
TEST(PageTable, PagesBeyondMaxPageAreNeverPresent) {
  PageTable pt;
  ASSERT_TRUE(pt.Map(5, 55, true));
  pt.Translate(5, /*is_write=*/true, /*set_bits=*/true);  // Sets A and D; warms the cache.
  const PageNum alias = 5 + PageTable::kMaxPage;
  const auto walk = pt.Translate(alias, /*is_write=*/true, /*set_bits=*/true);
  EXPECT_FALSE(walk.present);
  EXPECT_EQ(walk.levels_touched, 0);
  EXPECT_FALSE(pt.Lookup(alias).present);
  EXPECT_FALSE(pt.IsMapped(alias));
  EXPECT_EQ(pt.Unmap(alias), ~0ULL);
  EXPECT_FALSE(pt.Remap(alias, 66));
  EXPECT_FALSE(pt.TestAndClearAccessed(alias));
  EXPECT_FALSE(pt.TestAndClearDirty(alias));
  EXPECT_FALSE(pt.Translate(~0ULL, false, false).present);

  const auto page5 = pt.Lookup(5);
  ASSERT_TRUE(page5.present) << "an out-of-range page unmapped vpn 5";
  EXPECT_EQ(page5.target, 55u);
  EXPECT_TRUE(page5.was_accessed);
  EXPECT_TRUE(page5.was_dirty);
  EXPECT_EQ(pt.mapped_count(), 1u);
  EXPECT_EQ(pt.remap_count(), 0u);
  EXPECT_EQ(pt.Translate(5, false, false).target, 55u);
}

// Reference oracle for the differential test: the TLB as first written,
// with separate vpn and epoch arrays, a 64-bit LRU tick per entry, and
// victims picked by scanning for the lowest tick. The production Tlb packs
// the same state into one fused tag per way and one recency word per set;
// every observable result must stay identical.
class ReferenceTlb {
 public:
  explicit ReferenceTlb(int num_sets = 1024, int ways = 8) : num_sets_(num_sets), ways_(ways) {
    DEMETER_CHECK_GT(num_sets, 0);
    DEMETER_CHECK_GT(ways, 0);
    const size_t cap = static_cast<size_t>(num_sets) * static_cast<size_t>(ways);
    vpns_.resize(cap, ~0ULL);
    epochs_.resize(cap, 0);  // Sentinel: everything starts stale.
    frames_.resize(cap, kInvalidFrame);
    lru_.resize(cap, 0);
  }

  FrameId Lookup(PageNum vpn) {
    const size_t base = SetOf(vpn);
    for (int w = 0; w < ways_; ++w) {
      const size_t i = base + static_cast<size_t>(w);
      if (epochs_[i] == epoch_ && vpns_[i] == vpn) {
        lru_[i] = ++tick_;
        ++stats_.hits;
        return frames_[i];
      }
    }
    ++stats_.misses;
    return kInvalidFrame;
  }

  void CountCoalescedHit() { ++stats_.hits; }

  void Insert(PageNum vpn, FrameId frame) {
    const size_t base = SetOf(vpn);
    // Victim choice, in way order: a same-vpn live entry is updated in
    // place; otherwise the LAST non-live way wins, and only when every way
    // is live does true LRU (lowest tick) pick.
    size_t victim = base;
    bool victim_set = false;
    bool victim_live = false;
    for (int w = 0; w < ways_; ++w) {
      const size_t i = base + static_cast<size_t>(w);
      const bool live = epochs_[i] == epoch_;
      if (live && vpns_[i] == vpn) {
        frames_[i] = frame;
        lru_[i] = ++tick_;
        return;
      }
      if (!live) {
        victim = i;
        victim_set = true;
        victim_live = false;
      } else if (!victim_set || (victim_live && lru_[i] < lru_[victim])) {
        victim = i;
        victim_set = true;
        victim_live = true;
      }
    }
    vpns_[victim] = vpn;
    frames_[victim] = frame;
    lru_[victim] = ++tick_;
    epochs_[victim] = epoch_;
  }

  void InvalidatePage(PageNum vpn) {
    ++stats_.single_flushes;
    const size_t base = SetOf(vpn);
    for (int w = 0; w < ways_; ++w) {
      const size_t i = base + static_cast<size_t>(w);
      if (epochs_[i] == epoch_ && vpns_[i] == vpn) {
        epochs_[i] = 0;  // Sentinel: dead until re-inserted.
        return;
      }
    }
  }

  void InvalidateAll() {
    ++stats_.full_flushes;
    ++epoch_;
    cold_walks_ = static_cast<uint64_t>(capacity());
  }

  double ConsumeWalkFactor() {
    if (cold_walks_ == 0) {
      return 1.0;
    }
    --cold_walks_;
    return kColdWalkFactor;
  }

  template <typename Fn>
  void ForEachValid(Fn&& fn) const {
    for (size_t i = 0; i < epochs_.size(); ++i) {
      if (epochs_[i] == epoch_) {
        fn(vpns_[i], frames_[i]);
      }
    }
  }

  const TlbStats& stats() const { return stats_; }

  int capacity() const { return num_sets_ * ways_; }

 private:
  size_t SetOf(PageNum vpn) const {
    uint64_t h = vpn * 0x9e3779b97f4a7c15ULL;
    return static_cast<size_t>((h >> 32) % static_cast<uint64_t>(num_sets_)) *
           static_cast<size_t>(ways_);
  }

  int num_sets_;
  int ways_;
  std::vector<PageNum> vpns_;
  std::vector<uint64_t> epochs_;  // 0 = never valid / invalidated sentinel.
  std::vector<FrameId> frames_;
  std::vector<uint64_t> lru_;
  uint64_t tick_ = 0;
  uint64_t epoch_ = 1;
  uint64_t cold_walks_ = 0;
  TlbStats stats_;

  static constexpr double kColdWalkFactor = 2.5;
};

template <typename AnyTlb>
std::vector<std::pair<PageNum, FrameId>> ValidEntries(const AnyTlb& tlb) {
  std::vector<std::pair<PageNum, FrameId>> entries;
  tlb.ForEachValid([&](PageNum vpn, FrameId frame) { entries.emplace_back(vpn, frame); });
  return entries;
}

void ExpectSameStats(const TlbStats& got, const TlbStats& want) {
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.single_flushes, want.single_flushes);
  EXPECT_EQ(got.full_flushes, want.full_flushes);
}

struct TlbGeometry {
  int num_sets;
  int ways;
};

class TlbDifferentialTest : public ::testing::TestWithParam<TlbGeometry> {};

// One seeded stream of mixed operations drives the Tlb and the reference in
// lockstep. Pages come mostly from a hot range about twice the capacity
// (every set keeps evicting) and otherwise from the whole 36-bit space.
// Full flushes are rare enough that large TLBs still fill up between them.
// CountCoalescedHit is issued only right after a hit, as the run memo does.
TEST_P(TlbDifferentialTest, MatchesReferenceOnMixedStream) {
  const TlbGeometry geometry = GetParam();
  Tlb tlb(geometry.num_sets, geometry.ways);
  ReferenceTlb ref(geometry.num_sets, geometry.ways);
  const uint64_t capacity = static_cast<uint64_t>(tlb.capacity());
  const PageNum hot_pages = 2 * capacity + 3;
  const uint64_t flush_per_million = std::max<uint64_t>(1, 250000 / capacity);
  const int audit_every = capacity <= 64 ? 1 : 256;
  Rng rng(0x71b0 + capacity);
  constexpr int kOps = 200000;
  for (int op = 0; op < kOps; ++op) {
    const PageNum vpn =
        rng.NextBool(0.9) ? rng.NextBelow(hot_pages) : rng.NextBelow(PageTable::kMaxPage);
    const uint64_t kind = rng.NextBelow(1000000);
    if (kind < 500000) {
      const FrameId got = tlb.Lookup(vpn);
      ASSERT_EQ(got, ref.Lookup(vpn)) << "op " << op << ": Lookup(" << vpn << ")";
      if (got != kInvalidFrame) {
        for (uint64_t run = rng.NextBelow(3); run > 0; --run) {
          tlb.CountCoalescedHit();
          ref.CountCoalescedHit();
        }
      }
    } else if (kind < 800000) {
      // Frame ids span the 32-bit payload, its top values included.
      const FrameId frame =
          rng.NextBool(0.05) ? kMaxFrames - 1 - rng.NextBelow(4) : rng.Next() & (kMaxFrames - 1);
      tlb.Insert(vpn, frame);
      ref.Insert(vpn, frame);
    } else if (kind < 900000) {
      tlb.InvalidatePage(vpn);
      ref.InvalidatePage(vpn);
    } else if (kind < 900000 + flush_per_million) {
      tlb.InvalidateAll();
      ref.InvalidateAll();
    } else {
      ASSERT_EQ(tlb.ConsumeWalkFactor(), ref.ConsumeWalkFactor()) << "op " << op;
    }
    ExpectSameStats(tlb.stats(), ref.stats());
    if (op % audit_every == 0) {
      ASSERT_EQ(ValidEntries(tlb), ValidEntries(ref)) << "op " << op;
    }
  }
  EXPECT_EQ(ValidEntries(tlb), ValidEntries(ref));
  EXPECT_GT(tlb.stats().hits, 0u);
  EXPECT_GT(tlb.stats().full_flushes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbDifferentialTest,
    // Set counts that are not powers of two check SetOf's fastmod against
    // the reference's `%`; fewer than 8 ways leave recency words partly
    // unused, which Touch's zero-nibble search must never match.
    ::testing::Values(TlbGeometry{1, 1}, TlbGeometry{1, 4}, TlbGeometry{2, 2},
                      TlbGeometry{16, 8}, TlbGeometry{1024, 8}, TlbGeometry{3, 3},
                      TlbGeometry{9, 5}, TlbGeometry{7, 6}, TlbGeometry{5, 7},
                      TlbGeometry{1, 8}, TlbGeometry{1000, 8}),
    [](const ::testing::TestParamInfo<TlbGeometry>& info) {
      return std::to_string(info.param.num_sets) + "x" + std::to_string(info.param.ways);
    });

// Live entries of `tlb` in index order, read without touching recency. With
// one set, index order is way order.
std::vector<PageNum> Resident(const Tlb& tlb) {
  std::vector<PageNum> vpns;
  tlb.ForEachValid([&](PageNum vpn, FrameId) { vpns.push_back(vpn); });
  return vpns;
}

TEST(Tlb, HitAfterInsert) {
  Tlb tlb;
  EXPECT_EQ(tlb.Lookup(5), kInvalidFrame);
  tlb.Insert(5, 99);
  EXPECT_EQ(tlb.Lookup(5), 99u);
  EXPECT_EQ(tlb.stats().hits, 1u);
  EXPECT_EQ(tlb.stats().misses, 1u);
}

TEST(Tlb, InsertUpdatesExisting) {
  Tlb tlb;
  tlb.Insert(5, 1);
  tlb.Insert(5, 2);
  EXPECT_EQ(tlb.Lookup(5), 2u);
}

TEST(Tlb, InvalidatePageCountsAndEvicts) {
  Tlb tlb;
  tlb.Insert(5, 99);
  tlb.InvalidatePage(5);
  EXPECT_EQ(tlb.stats().single_flushes, 1u);
  EXPECT_EQ(tlb.Lookup(5), kInvalidFrame);
  // Invalidating an absent page still costs an instruction.
  tlb.InvalidatePage(123);
  EXPECT_EQ(tlb.stats().single_flushes, 2u);
}

TEST(Tlb, InvalidateAllFlushesEverything) {
  Tlb tlb;
  for (PageNum p = 0; p < 100; ++p) {
    tlb.Insert(p, p);
  }
  tlb.InvalidateAll();
  EXPECT_EQ(tlb.stats().full_flushes, 1u);
  for (PageNum p = 0; p < 100; ++p) {
    EXPECT_EQ(tlb.Lookup(p), kInvalidFrame);
  }
}

// The O(1) epoch-bump InvalidateAll must be indistinguishable from the old
// entry-by-entry sweep: stale entries are invisible to audits, cannot
// resurrect, and their slots are reusable.
TEST(Tlb, InvalidateAllHidesEntriesFromForEachValid) {
  Tlb tlb;
  for (PageNum p = 0; p < 100; ++p) {
    tlb.Insert(p, p);
  }
  tlb.InvalidateAll();
  int visited = 0;
  tlb.ForEachValid([&](PageNum, FrameId) { ++visited; });
  EXPECT_EQ(visited, 0) << "stale-epoch entries leaked into an audit walk";
}

// A released TLB (its VM left the host) answers as the flushed one did:
// every probe misses and counts, flushes count, audits see nothing, and the
// geometry-derived cold-walk budget is unchanged.
TEST(Tlb, ReleasedTlbAnswersAsTheFlushedOne) {
  Tlb tlb;
  for (PageNum p = 0; p < 4096; ++p) {
    tlb.Insert(p, static_cast<FrameId>(p + 1));
  }
  tlb.InvalidateAll();
  const TlbStats before = tlb.stats();
  tlb.ReleaseStorage();
  EXPECT_EQ(tlb.capacity(), 1024 * 8);
  for (PageNum p = 0; p < 4096; ++p) {
    ASSERT_EQ(tlb.Lookup(p), kInvalidFrame) << "vpn " << p;
  }
  EXPECT_EQ(tlb.Lookup(PageTable::kMaxPage - 1), kInvalidFrame);
  EXPECT_EQ(tlb.stats().misses, before.misses + 4097);
  EXPECT_EQ(tlb.stats().hits, before.hits);
  tlb.InvalidatePage(7);
  tlb.InvalidateAll();
  EXPECT_EQ(tlb.stats().single_flushes, before.single_flushes + 1);
  EXPECT_EQ(tlb.stats().full_flushes, before.full_flushes + 1);
  int visited = 0;
  tlb.ForEachValid([&](PageNum, FrameId) { ++visited; });
  EXPECT_EQ(visited, 0);
  int cold = 0;
  while (tlb.ConsumeWalkFactor() > 1.0) {
    ++cold;
  }
  EXPECT_EQ(cold, tlb.capacity()) << "the flush after release re-arms a full cold-walk window";
  // What is left is one set: of 100 pages inserted, the last eight stay.
  for (PageNum p = 0; p < 100; ++p) {
    tlb.Insert(p, static_cast<FrameId>(p + 1));
  }
  for (PageNum p = 0; p < 100; ++p) {
    EXPECT_EQ(tlb.Lookup(p), p < 92 ? kInvalidFrame : static_cast<FrameId>(p + 1)) << "vpn " << p;
  }
}

TEST(Tlb, ReinsertAfterInvalidateAllDoesNotResurrectNeighbors) {
  Tlb tlb(/*num_sets=*/1, /*ways=*/4);  // One set: all entries collide.
  for (PageNum p = 0; p < 4; ++p) {
    tlb.Insert(p, p + 100);
  }
  tlb.InvalidateAll();
  tlb.Insert(0, 200);
  EXPECT_EQ(tlb.Lookup(0), 200u);
  for (PageNum p = 1; p < 4; ++p) {
    EXPECT_EQ(tlb.Lookup(p), kInvalidFrame) << "stale entry " << p << " resurrected";
  }
  int visited = 0;
  tlb.ForEachValid([&](PageNum vpn, FrameId frame) {
    ++visited;
    EXPECT_EQ(vpn, 0u);
    EXPECT_EQ(frame, 200u);
  });
  EXPECT_EQ(visited, 1);
}

TEST(Tlb, StaleSlotsAreReusedBeforeEvictingLiveEntries) {
  Tlb tlb(/*num_sets=*/1, /*ways=*/4);
  for (PageNum p = 0; p < 4; ++p) {
    tlb.Insert(p, p);
  }
  tlb.InvalidateAll();
  // After the flush the whole set is stale; four fresh inserts must all fit
  // (stale slots are victims before any live entry is).
  for (PageNum p = 10; p < 14; ++p) {
    tlb.Insert(p, p);
  }
  for (PageNum p = 10; p < 14; ++p) {
    EXPECT_NE(tlb.Lookup(p), kInvalidFrame) << "live entry " << p << " was evicted";
  }
}

TEST(Tlb, InvalidatePageStillWorksAcrossEpochs) {
  Tlb tlb;
  tlb.Insert(5, 50);
  tlb.InvalidateAll();
  tlb.Insert(5, 51);
  tlb.InvalidatePage(5);
  EXPECT_EQ(tlb.Lookup(5), kInvalidFrame);
  EXPECT_EQ(tlb.stats().single_flushes, 1u);
}

TEST(Tlb, CapacityEvictsLru) {
  Tlb tlb(2, 2);  // 4 entries.
  EXPECT_EQ(tlb.capacity(), 4);
  for (PageNum p = 0; p < 100; ++p) {
    tlb.Insert(p, p);
  }
  int resident = 0;
  for (PageNum p = 0; p < 100; ++p) {
    if (tlb.Lookup(p) != kInvalidFrame) {
      ++resident;
    }
  }
  EXPECT_LE(resident, 4);
  EXPECT_GT(resident, 0);
}

// The exact victim, not just the resident count: a full set evicts its least
// recently used way, where both hits and inserts (including an in-place
// update) count as uses.
TEST(Tlb, LookupsReorderTheLruVictim) {
  Tlb tlb(/*num_sets=*/1, /*ways=*/4);
  for (PageNum p = 0; p < 4; ++p) {
    tlb.Insert(p, p + 100);  // An empty set fills its last way first.
  }
  ASSERT_EQ(Resident(tlb), (std::vector<PageNum>{3, 2, 1, 0}));
  // Recency, most recent first: 3 2 1 0. These hits make it 1 0 3 2.
  ASSERT_EQ(tlb.Lookup(2), 102u);
  ASSERT_EQ(tlb.Lookup(3), 103u);
  ASSERT_EQ(tlb.Lookup(0), 100u);
  ASSERT_EQ(tlb.Lookup(1), 101u);
  tlb.Insert(10, 110);
  EXPECT_EQ(Resident(tlb), (std::vector<PageNum>{3, 10, 1, 0})) << "victim was not page 2";
  // Recency 10 1 0 3; updating 0 in place makes it 0 10 1 3.
  tlb.Insert(0, 200);
  tlb.Insert(11, 111);
  EXPECT_EQ(Resident(tlb), (std::vector<PageNum>{11, 10, 1, 0})) << "victim was not page 3";
  tlb.Insert(12, 112);
  EXPECT_EQ(Resident(tlb), (std::vector<PageNum>{11, 10, 12, 0})) << "victim was not page 1";
  EXPECT_EQ(tlb.Lookup(0), 200u);
}

TEST(Tlb, CoalescedHitCountsWithoutReordering) {
  Tlb tlb(/*num_sets=*/1, /*ways=*/4);
  for (PageNum p = 0; p < 4; ++p) {
    tlb.Insert(p, p + 100);
  }
  ASSERT_EQ(tlb.Lookup(1), 101u);  // Recency: 1 3 2 0.
  tlb.CountCoalescedHit();
  tlb.CountCoalescedHit();
  EXPECT_EQ(tlb.stats().hits, 3u);
  EXPECT_EQ(tlb.stats().misses, 0u);
  tlb.Insert(10, 110);
  EXPECT_EQ(Resident(tlb), (std::vector<PageNum>{3, 2, 1, 10})) << "victim was not page 0";
}

TEST(Tlb, LastStaleWayIsReusedBeforeAnyLiveWay) {
  Tlb tlb(/*num_sets=*/1, /*ways=*/4);
  for (PageNum p = 0; p < 4; ++p) {
    tlb.Insert(p, p + 100);  // Ways 0..3 hold 3 2 1 0; page 0 is the LRU.
  }
  tlb.InvalidatePage(2);  // Way 1.
  tlb.InvalidatePage(1);  // Way 2.
  tlb.Insert(10, 110);    // The last stale way (2), not way 1, not LRU way 3.
  tlb.Insert(11, 111);    // Then way 1.
  EXPECT_EQ(Resident(tlb), (std::vector<PageNum>{3, 11, 10, 0}));
  tlb.Insert(12, 112);  // Every way live: LRU page 0 goes.
  EXPECT_EQ(Resident(tlb), (std::vector<PageNum>{3, 11, 10, 12}));
  // A full flush makes every way stale: refills go last way first again.
  tlb.InvalidateAll();
  tlb.Insert(20, 120);
  tlb.Insert(21, 121);
  EXPECT_EQ(Resident(tlb), (std::vector<PageNum>{21, 20}));
}

// The epoch field is 28 bits. At its top, InvalidateAll zeroes every tag and
// restarts at epoch 1, so an entry tagged with the previous epoch 1 cannot
// come back. Every flush below is O(1) apart from that one sweep.
TEST(Tlb, NoEntryComesBackAcrossTheEpochWrap) {
  Tlb tlb(/*num_sets=*/1, /*ways=*/4);
  for (PageNum p = 1; p <= 4; ++p) {
    tlb.Insert(p, p + 100);  // Tagged with epoch 1.
  }
  for (uint64_t flush = 1; flush < Tlb::kMaxEpoch; ++flush) {
    tlb.InvalidateAll();
  }
  // Now at the last epoch: one refill overwrites the last way (page 1).
  tlb.Insert(6, 106);
  ASSERT_EQ(Resident(tlb), (std::vector<PageNum>{6}));
  tlb.InvalidateAll();  // Wraps to epoch 1.
  EXPECT_EQ(tlb.stats().full_flushes, Tlb::kMaxEpoch);
  EXPECT_TRUE(Resident(tlb).empty()) << "an entry survived the epoch wrap";
  for (PageNum p = 2; p <= 6; ++p) {
    EXPECT_EQ(tlb.Lookup(p), kInvalidFrame) << "page " << p << " came back";
  }
  tlb.Insert(7, 107);
  EXPECT_EQ(tlb.Lookup(7), 107u);
  tlb.InvalidateAll();
  EXPECT_EQ(tlb.Lookup(7), kInvalidFrame);
}

// The tag holds a 36-bit page number (PageTable::kMaxPage); no larger page
// is ever mapped, so none may alias a cached one.
TEST(Tlb, PagesBeyondMaxPageAreNeverCached) {
  Tlb tlb;
  tlb.Insert(5, 105);
  const PageNum alias = 5 + PageTable::kMaxPage;
  EXPECT_EQ(tlb.Lookup(alias), kInvalidFrame);
  EXPECT_EQ(tlb.Lookup(~0ULL), kInvalidFrame);
  EXPECT_EQ(tlb.stats().misses, 2u);
  tlb.InvalidatePage(alias);
  EXPECT_EQ(tlb.stats().single_flushes, 1u) << "the flush instruction still counts";
  EXPECT_EQ(tlb.Lookup(5), 105u) << "flushing the alias dropped page 5";
  EXPECT_DEATH(tlb.Insert(alias, 1), "outside the 36-bit page space");
}

// The payload is a 32-bit frame id: the top one round-trips, and one past
// it (which no HostMemory can hand out) is refused rather than truncated.
TEST(Tlb, FramesBeyond32BitsAbort) {
  Tlb tlb;
  tlb.Insert(5, kMaxFrames - 1);
  EXPECT_EQ(tlb.Lookup(5), kMaxFrames - 1);
  EXPECT_DEATH(tlb.Insert(6, kMaxFrames), "outside the 32-bit frame space");
  EXPECT_DEATH(tlb.Insert(6, kInvalidFrame), "outside the 32-bit frame space");
}

TEST(Tlb, ConstructorChecksGeometry) {
  EXPECT_DEATH({ Tlb tlb(/*num_sets=*/1, /*ways=*/0); }, "ways");
  EXPECT_DEATH({ Tlb tlb(/*num_sets=*/1, /*ways=*/9); }, "kMaxWays");
  EXPECT_DEATH({ Tlb tlb(/*num_sets=*/0, /*ways=*/4); }, "num_sets");
  Tlb widest(/*num_sets=*/1, Tlb::kMaxWays);
  for (PageNum p = 0; p < 9; ++p) {
    widest.Insert(p, p);
  }
  EXPECT_EQ(Resident(widest), (std::vector<PageNum>{7, 6, 5, 4, 3, 2, 1, 8}));
}

TEST(Tlb, ColdWalkBudgetMatchesCapacity) {
  Tlb tlb(/*num_sets=*/2, /*ways=*/2);
  tlb.InvalidateAll();
  // Exactly capacity() misses pay the cold-walk multiplier, then it decays.
  for (int i = 0; i < tlb.capacity(); ++i) {
    EXPECT_GT(tlb.ConsumeWalkFactor(), 1.0) << "miss " << i;
  }
  EXPECT_DOUBLE_EQ(tlb.ConsumeWalkFactor(), 1.0);
}

// Regression: back-to-back full invalidations (chunked MMU-notifier scans
// issue one invept per chunk) used to STACK the cold-walk budget — 4 flushes
// charged 4x capacity of cold walks. Already-cold paging-structure caches
// cannot get colder; a repeat flush only restarts the rewarm window, so the
// budget must reset to one capacity.
TEST(Tlb, RepeatedInvalidateAllResetsColdWalkBudget) {
  Tlb tlb(/*num_sets=*/2, /*ways=*/2);
  for (int flush = 0; flush < 4; ++flush) {
    tlb.InvalidateAll();
  }
  uint64_t cold = 0;
  while (tlb.ConsumeWalkFactor() > 1.0) {
    ++cold;
    ASSERT_LE(cold, static_cast<uint64_t>(4 * tlb.capacity())) << "budget never drained";
  }
  EXPECT_EQ(cold, static_cast<uint64_t>(tlb.capacity()));
}

TEST(Tlb, InvalidateAllMidRewarmRestartsWindow) {
  Tlb tlb(/*num_sets=*/2, /*ways=*/2);
  tlb.InvalidateAll();
  // Partially rewarm, then flush again: the full budget returns (reset), not
  // the partial remainder plus another capacity (stack).
  EXPECT_GT(tlb.ConsumeWalkFactor(), 1.0);
  tlb.InvalidateAll();
  for (int i = 0; i < tlb.capacity(); ++i) {
    EXPECT_GT(tlb.ConsumeWalkFactor(), 1.0) << "miss " << i;
  }
  EXPECT_DOUBLE_EQ(tlb.ConsumeWalkFactor(), 1.0);
}

TEST(Tlb, StatsMerge) {
  TlbStats a;
  TlbStats b;
  a.hits = 1;
  b.hits = 2;
  b.full_flushes = 3;
  a.Merge(b);
  EXPECT_EQ(a.hits, 3u);
  EXPECT_EQ(a.full_flushes, 3u);
}

class WalkerTest : public ::testing::Test {
 protected:
  Tlb tlb_;
  PageTable gpt_;
  PageTable ept_;
  MmuCosts costs_;
};

TEST_F(WalkerTest, FullTranslationAndTlbFill) {
  gpt_.Map(10, 200, true);
  ept_.Map(200, 3000, true);
  auto r = Translate2D(tlb_, gpt_, ept_, 10, false, costs_);
  EXPECT_EQ(r.status, TranslateStatus::kOk);
  EXPECT_EQ(r.gpa_page, 200u);
  EXPECT_EQ(r.frame, 3000u);
  EXPECT_FALSE(r.tlb_hit);
  EXPECT_GT(r.cost_ns, costs_.tlb_hit_ns);

  // Second translation hits the TLB and is much cheaper.
  auto r2 = Translate2D(tlb_, gpt_, ept_, 10, false, costs_);
  EXPECT_TRUE(r2.tlb_hit);
  EXPECT_EQ(r2.frame, 3000u);
  EXPECT_DOUBLE_EQ(r2.cost_ns, costs_.tlb_hit_ns);
}

TEST_F(WalkerTest, GuestFaultWhenGptUnmapped) {
  auto r = Translate2D(tlb_, gpt_, ept_, 10, false, costs_);
  EXPECT_EQ(r.status, TranslateStatus::kGuestFault);
}

TEST_F(WalkerTest, EptFaultWhenEptUnmapped) {
  gpt_.Map(10, 200, true);
  auto r = Translate2D(tlb_, gpt_, ept_, 10, false, costs_);
  EXPECT_EQ(r.status, TranslateStatus::kEptFault);
  EXPECT_EQ(r.gpa_page, 200u);
}

TEST_F(WalkerTest, WalkSetsBitsInBothDimensions) {
  gpt_.Map(10, 200, true);
  ept_.Map(200, 3000, true);
  Translate2D(tlb_, gpt_, ept_, 10, /*is_write=*/true, costs_);
  EXPECT_TRUE(gpt_.Lookup(10).was_accessed);
  EXPECT_TRUE(gpt_.Lookup(10).was_dirty);
  EXPECT_TRUE(ept_.Lookup(200).was_accessed);
  EXPECT_TRUE(ept_.Lookup(200).was_dirty);
}

// Regression: the TLB-hit write path updated the GPT leaf's D bit but threw
// away the gPA, so the EPT leaf never learned about writes that hit the TLB.
// Hypervisor-side dirty tracking (which can only see EPT A/D) was blind to
// every such write between full flushes.
TEST_F(WalkerTest, TlbHitWriteSetsEptDirty) {
  gpt_.Map(10, 200, true);
  ept_.Map(200, 3000, true);
  // Fill the TLB with a read: A set in both dimensions, D in neither.
  Translate2D(tlb_, gpt_, ept_, 10, /*is_write=*/false, costs_);
  ASSERT_FALSE(ept_.Lookup(200).was_dirty);
  ASSERT_TRUE(ept_.TestAndClearAccessed(200)) << "fill walk set A";
  // Write that hits the TLB: the microcode walk must set D in BOTH tables.
  auto r = Translate2D(tlb_, gpt_, ept_, 10, /*is_write=*/true, costs_);
  ASSERT_TRUE(r.tlb_hit);
  EXPECT_TRUE(gpt_.Lookup(10).was_dirty);
  EXPECT_TRUE(ept_.TestAndClearDirty(200)) << "EPT missed a TLB-hit write";
  EXPECT_TRUE(ept_.Lookup(200).was_accessed) << "micro-walk also re-sets A";
}

// Guest-fault cost charges the levels the walk actually touched, each
// multiplied by the nested EPT translations of the page-table pages.
TEST_F(WalkerTest, GuestFaultCostChargesPartialWalk) {
  // Empty GPT: the walk dies at level 1 (root's child absent).
  auto shallow = Translate2D(tlb_, gpt_, ept_, 10, false, costs_);
  ASSERT_EQ(shallow.status, TranslateStatus::kGuestFault);
  EXPECT_DOUBLE_EQ(shallow.cost_ns,
                   1.0 * (PageTable::kLevels + 1) * costs_.pt_touch_ns);
  // Fully-built subtree with a non-present leaf: all levels touched.
  gpt_.Map(10, 200, true);
  gpt_.Unmap(10);
  auto deep = Translate2D(tlb_, gpt_, ept_, 10, false, costs_);
  ASSERT_EQ(deep.status, TranslateStatus::kGuestFault);
  EXPECT_DOUBLE_EQ(deep.cost_ns, static_cast<double>(PageTable::kLevels) *
                                     (PageTable::kLevels + 1) * costs_.pt_touch_ns);
}

// The cold-walk multiplier is consumed exactly once per miss — including
// misses that end in a fault. A capacity-1 TLB makes the budget observable:
// one cold miss, then costs return to warm pricing.
TEST_F(WalkerTest, ColdWalkFactorConsumedOncePerFaultingMiss) {
  Tlb tiny(/*num_sets=*/1, /*ways=*/1);
  tiny.InvalidateAll();
  const double warm_fault = 1.0 * (PageTable::kLevels + 1) * costs_.pt_touch_ns;
  auto first = Translate2D(tiny, gpt_, ept_, 10, false, costs_);
  ASSERT_EQ(first.status, TranslateStatus::kGuestFault);
  EXPECT_GT(first.cost_ns, warm_fault) << "faulting miss must pay the cold multiplier";
  auto second = Translate2D(tiny, gpt_, ept_, 10, false, costs_);
  EXPECT_DOUBLE_EQ(second.cost_ns, warm_fault)
      << "budget of 1 was not consumed by the faulting miss";
}

TEST_F(WalkerTest, MissCostExceedsHitCostSubstantially) {
  gpt_.Map(10, 200, true);
  ept_.Map(200, 3000, true);
  auto miss = Translate2D(tlb_, gpt_, ept_, 10, false, costs_);
  auto hit = Translate2D(tlb_, gpt_, ept_, 10, false, costs_);
  EXPECT_GT(miss.cost_ns, hit.cost_ns * 20);
}

// Regression: a gVA page at or above kMaxPage used to walk as its low 36 bits,
// so Translate2D returned vpn 5's frame for 5 + kMaxPage and cached it in the
// TLB. Now it guest-faults without walking, and Map names the bad page.
TEST_F(WalkerTest, PageBeyondMaxPageGuestFaultsAndIsNotCached) {
  gpt_.Map(5, 200, true);
  ept_.Map(200, 3000, true);
  const auto r = Translate2D(tlb_, gpt_, ept_, 5 + PageTable::kMaxPage, false, costs_);
  EXPECT_EQ(r.status, TranslateStatus::kGuestFault);
  EXPECT_DOUBLE_EQ(r.cost_ns, 0.0) << "no level of the guest table exists for it";
  EXPECT_TRUE(Resident(tlb_).empty());
  EXPECT_EQ(tlb_.stats().misses, 1u);
  EXPECT_DEATH(gpt_.Map(5 + PageTable::kMaxPage, 201, true), "kMaxPage");
}

TEST_F(WalkerTest, FullFlushForcesRewalk) {
  gpt_.Map(10, 200, true);
  ept_.Map(200, 3000, true);
  Translate2D(tlb_, gpt_, ept_, 10, false, costs_);
  tlb_.InvalidateAll();
  auto r = Translate2D(tlb_, gpt_, ept_, 10, false, costs_);
  EXPECT_FALSE(r.tlb_hit);
}

}  // namespace
}  // namespace demeter
