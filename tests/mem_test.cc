#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/mem/host_memory.h"
#include "src/mem/tier.h"

namespace demeter {
namespace {

HostMemory MakeTwoTier(uint64_t fmem_bytes = 16 * kMiB, uint64_t smem_bytes = 64 * kMiB) {
  return HostMemory({TierSpec::LocalDram(fmem_bytes), TierSpec::Pmem(smem_bytes)});
}

TEST(TierSpec, Table2Defaults) {
  const TierSpec dram = TierSpec::LocalDram(kGiB);
  EXPECT_DOUBLE_EQ(dram.read_latency_ns, 68.7);
  EXPECT_DOUBLE_EQ(dram.read_bw_mbps, 88156.5);

  const TierSpec remote = TierSpec::RemoteDram(kGiB);
  EXPECT_DOUBLE_EQ(remote.read_latency_ns, 121.9);
  EXPECT_DOUBLE_EQ(remote.read_bw_mbps, 53533.8);

  const TierSpec pmem = TierSpec::Pmem(kGiB);
  EXPECT_DOUBLE_EQ(pmem.read_latency_ns, 176.6);
  EXPECT_DOUBLE_EQ(pmem.read_bw_mbps, 21414.5);
  // Asymmetric writes.
  EXPECT_GT(pmem.write_latency_ns, pmem.read_latency_ns);
  EXPECT_LT(pmem.write_bw_mbps, pmem.read_bw_mbps);
}

TEST(TierSpec, CapacityPages) {
  EXPECT_EQ(TierSpec::LocalDram(kGiB).capacity_pages(), kGiB / kPageSize);
}

TEST(MemoryTier, UncontendedLatencyNearBase) {
  MemoryTier tier(TierSpec::LocalDram(kGiB));
  const double cost = tier.AccessCost(0, 64, /*is_write=*/false);
  EXPECT_GE(cost, 68.7);
  EXPECT_LT(cost, 72.0);  // 64B service time is under a nanosecond.
}

TEST(MemoryTier, BandwidthContentionStretchesLatency) {
  MemoryTier tier(TierSpec::Pmem(kGiB));
  // Saturate the 1 ms window: thousands of page writes push utilization to
  // the cap and inflate latency by the queueing factor.
  double last = 0.0;
  for (int i = 0; i < 20000; ++i) {
    last = tier.AccessCost(0, kPageSize, /*is_write=*/true);
  }
  const double single = MemoryTier(TierSpec::Pmem(kGiB)).AccessCost(0, kPageSize, true);
  EXPECT_GT(last, single * 5);
  EXPECT_GT(tier.Utilization(), 0.9);
}

TEST(MemoryTier, ContentionDrainsOverTime) {
  MemoryTier tier(TierSpec::Pmem(kGiB));
  for (int i = 0; i < 20000; ++i) {
    tier.AccessCost(0, kPageSize, true);
  }
  // Two windows later the load estimate has aged out.
  const double later = tier.AccessCost(10 * MemoryTier::kWindowNs, 64, false);
  EXPECT_LT(later, 200.0);
  EXPECT_LT(tier.Utilization(), 0.01);
}

TEST(MemoryTier, SkewedTimestampsDoNotExplodeLatency) {
  // Accesses stamped slightly in the past (vCPU clock skew) must not pay
  // phantom queueing delays.
  MemoryTier tier(TierSpec::Pmem(kGiB));
  tier.AccessCost(5 * MemoryTier::kWindowNs, 64, false);
  const double behind = tier.AccessCost(2 * MemoryTier::kWindowNs, 64, false);
  EXPECT_LT(behind, 200.0);
}

TEST(MemoryTier, TracksBytes) {
  MemoryTier tier(TierSpec::LocalDram(kGiB));
  tier.AccessCost(0, 64, false);
  tier.AccessCost(0, kPageSize, true);
  EXPECT_EQ(tier.bytes_transferred(), 64 + kPageSize);
}

TEST(HostMemory, TierLayout) {
  HostMemory mem = MakeTwoTier();
  EXPECT_EQ(mem.num_tiers(), 2);
  EXPECT_EQ(mem.CapacityPages(kFmemTier), 16 * kMiB / kPageSize);
  EXPECT_EQ(mem.CapacityPages(kSmemTier), 64 * kMiB / kPageSize);
  EXPECT_EQ(mem.total_frames(), (16 + 64) * kMiB / kPageSize);
}

TEST(HostMemory, AllocateFromCorrectTier) {
  HostMemory mem = MakeTwoTier();
  const auto f = mem.Allocate(kFmemTier);
  const auto s = mem.Allocate(kSmemTier);
  ASSERT_TRUE(f.has_value());
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(mem.TierOf(*f), kFmemTier);
  EXPECT_EQ(mem.TierOf(*s), kSmemTier);
  EXPECT_NE(*f, *s);
}

TEST(HostMemory, ExhaustionReturnsNullopt) {
  HostMemory mem({TierSpec::LocalDram(4 * kPageSize), TierSpec::Pmem(4 * kPageSize)});
  std::vector<FrameId> frames;
  for (int i = 0; i < 4; ++i) {
    auto f = mem.Allocate(kFmemTier);
    ASSERT_TRUE(f.has_value());
    frames.push_back(*f);
  }
  EXPECT_FALSE(mem.Allocate(kFmemTier).has_value());
  // SMEM unaffected.
  EXPECT_TRUE(mem.Allocate(kSmemTier).has_value());
  mem.Free(frames[0]);
  EXPECT_TRUE(mem.Allocate(kFmemTier).has_value());
}

TEST(HostMemory, NoDuplicateAllocations) {
  HostMemory mem = MakeTwoTier(kMiB, kMiB);
  std::set<FrameId> seen;
  for (int t = 0; t < 2; ++t) {
    for (;;) {
      auto f = mem.Allocate(t);
      if (!f.has_value()) {
        break;
      }
      EXPECT_TRUE(seen.insert(*f).second) << "duplicate frame " << *f;
    }
  }
  EXPECT_EQ(seen.size(), mem.total_frames());
}

TEST(HostMemory, FreeCountsTrack) {
  HostMemory mem = MakeTwoTier(kMiB, kMiB);
  EXPECT_EQ(mem.FreePages(kFmemTier), 256u);
  EXPECT_EQ(mem.UsedPages(kFmemTier), 0u);
  auto f = mem.Allocate(kFmemTier);
  EXPECT_EQ(mem.FreePages(kFmemTier), 255u);
  EXPECT_EQ(mem.UsedPages(kFmemTier), 1u);
  mem.Free(*f);
  EXPECT_EQ(mem.FreePages(kFmemTier), 256u);
}

TEST(HostMemory, TokensPersistUntilFree) {
  HostMemory mem = MakeTwoTier(kMiB, kMiB);
  auto f = mem.Allocate(kSmemTier);
  EXPECT_EQ(mem.ReadToken(*f), 0u);
  mem.WriteToken(*f, 0xdeadbeef);
  EXPECT_EQ(mem.ReadToken(*f), 0xdeadbeefu);
  mem.Free(*f);
  auto f2 = mem.Allocate(kSmemTier);
  // Freed frames are scrubbed.
  EXPECT_EQ(mem.ReadToken(*f2), 0u);
}

TEST(HostMemory, DoubleFreeAborts) {
  HostMemory mem = MakeTwoTier(kMiB, kMiB);
  auto f = mem.Allocate(kFmemTier);
  mem.Free(*f);
  EXPECT_DEATH(mem.Free(*f), "double free");
}

// The allocator as it stood before HostMemory sized its bookkeeping on
// demand: every frame pushed onto the free list and given a token slot at
// construction. The randomized test below holds HostMemory to it.
class EagerHostMemory {
 public:
  explicit EagerHostMemory(const std::vector<uint64_t>& tier_pages) {
    FrameId base = 0;
    for (const uint64_t pages : tier_pages) {
      TierState state;
      state.base = base;
      state.num_frames = pages;
      for (uint64_t i = pages; i > 0; --i) {
        state.free_list.push_back(base + i - 1);
      }
      state.allocated.assign(pages, false);
      state.poisoned.assign(pages, false);
      base += pages;
      states_.push_back(std::move(state));
    }
    tokens_.assign(base, 0);
  }

  TierIndex TierOf(FrameId frame) const {
    for (size_t i = 0; i < states_.size(); ++i) {
      if (frame >= states_[i].base && frame < states_[i].base + states_[i].num_frames) {
        return static_cast<TierIndex>(i);
      }
    }
    return -1;
  }

  std::optional<FrameId> Allocate(TierIndex t) {
    TierState& state = states_[static_cast<size_t>(t)];
    if (state.free_list.empty()) {
      return std::nullopt;
    }
    const FrameId frame = state.free_list.back();
    state.free_list.pop_back();
    state.allocated[frame - state.base] = true;
    return frame;
  }

  void Free(FrameId frame) {
    TierState& state = states_[static_cast<size_t>(TierOf(frame))];
    state.allocated[frame - state.base] = false;
    state.free_list.push_back(frame);
    tokens_[frame] = 0;
  }

  void Poison(FrameId frame) {
    TierState& state = states_[static_cast<size_t>(TierOf(frame))];
    state.allocated[frame - state.base] = false;
    state.poisoned[frame - state.base] = true;
    ++state.poisoned_count;
    tokens_[frame] = 0;
  }

  bool IsAllocated(FrameId frame) const {
    const TierState& state = states_[static_cast<size_t>(TierOf(frame))];
    return state.allocated[frame - state.base];
  }

  bool IsPoisoned(FrameId frame) const {
    const TierState& state = states_[static_cast<size_t>(TierOf(frame))];
    return state.poisoned[frame - state.base];
  }

  uint64_t CarveFree(TierIndex t, uint64_t max_frames) {
    TierState& state = states_[static_cast<size_t>(t)];
    uint64_t carved = 0;
    while (carved < max_frames && !state.free_list.empty()) {
      state.carved.push_back(state.free_list.back());
      state.free_list.pop_back();
      ++carved;
    }
    return carved;
  }

  void RestoreCarved(TierIndex t) {
    TierState& state = states_[static_cast<size_t>(t)];
    while (!state.carved.empty()) {
      state.free_list.push_back(state.carved.back());
      state.carved.pop_back();
    }
  }

  uint64_t FreePages(TierIndex t) const { return states_[static_cast<size_t>(t)].free_list.size(); }
  uint64_t CarvedPages(TierIndex t) const { return states_[static_cast<size_t>(t)].carved.size(); }
  uint64_t PoisonedPages(TierIndex t) const {
    return states_[static_cast<size_t>(t)].poisoned_count;
  }
  uint64_t UsedPages(TierIndex t) const {
    const TierState& state = states_[static_cast<size_t>(t)];
    return state.num_frames - FreePages(t) - PoisonedPages(t) - CarvedPages(t);
  }

  uint64_t ReadToken(FrameId frame) const { return tokens_[frame]; }
  void WriteToken(FrameId frame, uint64_t token) { tokens_[frame] = token; }
  uint64_t total_frames() const { return tokens_.size(); }

 private:
  struct TierState {
    FrameId base = 0;
    uint64_t num_frames = 0;
    std::vector<FrameId> free_list;  // LIFO.
    std::vector<bool> allocated;
    std::vector<bool> poisoned;
    uint64_t poisoned_count = 0;
    std::vector<FrameId> carved;
  };

  std::vector<TierState> states_;
  std::vector<uint64_t> tokens_;
};

void ExpectSameFrames(const HostMemory& got, const EagerHostMemory& want, const std::string& at) {
  ASSERT_EQ(got.total_frames(), want.total_frames()) << at;
  for (FrameId frame = 0; frame < want.total_frames(); ++frame) {
    ASSERT_EQ(got.IsAllocated(frame), want.IsAllocated(frame)) << at << ", frame " << frame;
    ASSERT_EQ(got.IsPoisoned(frame), want.IsPoisoned(frame)) << at << ", frame " << frame;
    ASSERT_EQ(got.ReadToken(frame), want.ReadToken(frame)) << at << ", frame " << frame;
  }
}

// A seeded stream of every HostMemory operation, on small tiers so that
// exhaustion, whole-tier carves and frees inside a carve window all happen,
// drives HostMemory and the eager transcription in lockstep. Every frame
// handed out, every count and every token must agree.
void RunAllocatorDifferential(const std::vector<uint64_t>& tier_pages, uint64_t seed) {
  std::vector<TierSpec> specs;
  for (size_t t = 0; t < tier_pages.size(); ++t) {
    const uint64_t bytes = tier_pages[t] * kPageSize;
    specs.push_back(t == 0 ? TierSpec::LocalDram(bytes)
                           : t == 1 ? TierSpec::Pmem(bytes) : TierSpec::Zswap(bytes));
  }
  HostMemory got(specs);
  EagerHostMemory want(tier_pages);
  const TierIndex num_tiers = static_cast<TierIndex>(tier_pages.size());
  std::vector<FrameId> allocated;  // Frames both allocators hold out.
  Rng rng(seed);
  constexpr int kOps = 20000;
  for (int op = 0; op < kOps; ++op) {
    const std::string at = "op " + std::to_string(op);
    const TierIndex t = static_cast<TierIndex>(rng.NextBelow(static_cast<uint64_t>(num_tiers)));
    const uint64_t kind = rng.NextBelow(100);
    const size_t pick = allocated.empty() ? 0 : rng.NextBelow(allocated.size());
    if (kind < 34) {
      const std::optional<FrameId> frame = got.Allocate(t);
      ASSERT_EQ(frame, want.Allocate(t)) << at << ": Allocate(" << t << ")";
      if (frame.has_value()) {
        allocated.push_back(*frame);
      }
    } else if (kind < 60) {
      if (!allocated.empty()) {
        got.Free(allocated[pick]);
        want.Free(allocated[pick]);
        allocated[pick] = allocated.back();
        allocated.pop_back();
      }
    } else if (kind < 64) {
      const uint64_t max_frames = rng.NextBelow(tier_pages[static_cast<size_t>(t)] + 1);
      ASSERT_EQ(got.CarveFree(t, max_frames), want.CarveFree(t, max_frames)) << at;
    } else if (kind < 69) {
      got.RestoreCarved(t);
      want.RestoreCarved(t);
    } else if (kind < 71) {
      if (!allocated.empty()) {
        got.Poison(allocated[pick]);
        want.Poison(allocated[pick]);
        allocated[pick] = allocated.back();
        allocated.pop_back();
      }
    } else if (kind < 85) {
      if (!allocated.empty()) {
        const uint64_t token = rng.Next() | 1;
        got.WriteToken(allocated[pick], token);
        want.WriteToken(allocated[pick], token);
      }
    } else {
      const FrameId frame = rng.NextBelow(want.total_frames());
      ASSERT_EQ(got.ReadToken(frame), want.ReadToken(frame)) << at << ": frame " << frame;
    }
    for (TierIndex i = 0; i < num_tiers; ++i) {
      ASSERT_EQ(got.FreePages(i), want.FreePages(i)) << at << ", tier " << i;
      ASSERT_EQ(got.UsedPages(i), want.UsedPages(i)) << at << ", tier " << i;
      ASSERT_EQ(got.CarvedPages(i), want.CarvedPages(i)) << at << ", tier " << i;
      ASSERT_EQ(got.PoisonedPages(i), want.PoisonedPages(i)) << at << ", tier " << i;
    }
    if (op % 64 == 0) {
      ExpectSameFrames(got, want, at);
    }
  }
  ExpectSameFrames(got, want, "end");
  // The stream must have reached the corners it exists to cover.
  for (TierIndex i = 0; i < num_tiers; ++i) {
    EXPECT_GT(got.PoisonedPages(i), 0u) << "tier " << i;
  }
}

TEST(HostMemory, MatchesEagerAllocatorOnTwoTiers) { RunAllocatorDifferential({40, 70}, 0x4e3); }

TEST(HostMemory, MatchesEagerAllocatorOnThreeTiers) {
  RunAllocatorDifferential({33, 50, 64}, 0x4e4);
}

TEST(HostMemory, RefusesFrameIdsBeyond32Bits) {
  // One frame too many, split across two tiers: refused at construction,
  // which allocates no per-frame state, so the probe itself stays small.
  const uint64_t half = kMaxFrames / 2;
  EXPECT_DEATH(HostMemory({TierSpec::LocalDram(half * kPageSize),
                           TierSpec::Pmem((half + 1) * kPageSize)}),
               "32-bit frame id");
  // Exactly 2^32 frames fit; the top frame is free and holds no data.
  HostMemory widest({TierSpec::LocalDram(half * kPageSize), TierSpec::Pmem(half * kPageSize)});
  EXPECT_EQ(widest.total_frames(), kMaxFrames);
  EXPECT_EQ(widest.TierOf(kMaxFrames - 1), kSmemTier);
  EXPECT_FALSE(widest.IsAllocated(kMaxFrames - 1));
  EXPECT_EQ(widest.ReadToken(kMaxFrames - 1), 0u);
  EXPECT_EQ(widest.FreePages(kSmemTier), half);
}

TEST(HostMemory, TokenWriteToUnallocatedFrameAborts) {
  HostMemory mem = MakeTwoTier(kMiB, kMiB);
  auto f = mem.Allocate(kFmemTier);
  mem.Free(*f);
  EXPECT_DEATH(mem.WriteToken(*f, 1), "token write to unallocated frame");
}

TEST(MediaKindNames, AllNamed) {
  EXPECT_STREQ(MediaKindName(MediaKind::kLocalDram), "local-dram");
  EXPECT_STREQ(MediaKindName(MediaKind::kRemoteDram), "remote-dram(cxl)");
  EXPECT_STREQ(MediaKindName(MediaKind::kPmem), "pmem");
  EXPECT_STREQ(MediaKindName(MediaKind::kZswap), "zswap");
}

TEST(TierSpec, ZswapIsSlowerThanEveryByteAddressableTier) {
  const TierSpec z = TierSpec::Zswap(kGiB);
  EXPECT_EQ(z.media, MediaKind::kZswap);
  // The compression pass dominates: well above PMem, well below the swap
  // device latencies SwapDevice adds on top.
  EXPECT_GT(z.read_latency_ns, TierSpec::Pmem(kGiB).read_latency_ns);
  EXPECT_GT(z.write_latency_ns, z.read_latency_ns);
  EXPECT_LT(z.read_bw_mbps, TierSpec::Pmem(kGiB).read_bw_mbps);
  EXPECT_EQ(z.capacity_pages(), kGiB / kPageSize);
}

TEST(HostMemory, ThreeTierLayout) {
  HostMemory mem({TierSpec::LocalDram(kMiB), TierSpec::Pmem(kMiB),
                  TierSpec::Zswap(2 * kMiB)});
  EXPECT_EQ(mem.num_tiers(), 3);
  EXPECT_EQ(mem.CapacityPages(kSwapTier), 2 * kMiB / kPageSize);
  auto f = mem.Allocate(kSwapTier);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(mem.TierOf(*f), kSwapTier);
  // Swap frames live above both DRAM tiers in the flat frame space.
  EXPECT_GE(*f, mem.CapacityPages(kFmemTier) + mem.CapacityPages(kSmemTier));
}

// Regression: a degenerate spec (zero bandwidth — e.g. a tiershrink carve
// that took a small tier to nothing) must yield slow-but-finite costs, never
// inf/NaN that would poison every downstream latency accumulator.
TEST(MemoryTier, ZeroBandwidthSpecStaysFinite) {
  TierSpec spec = TierSpec::Pmem(kGiB);
  spec.read_bw_mbps = 0.0;
  spec.write_bw_mbps = 0.0;
  MemoryTier tier(spec);
  const double cost = tier.AccessCost(0, kPageSize, /*is_write=*/true);
  EXPECT_TRUE(std::isfinite(cost));
  EXPECT_GT(cost, 0.0);
  // Clamped to the bandwidth floor: a page takes ~kPageSize/(1 MB/s) = ~4 ms,
  // times at most the capped queueing factor.
  EXPECT_LT(cost, 1e9);
  EXPECT_TRUE(std::isfinite(tier.Utilization()));
}

// Regression: with ~zero window capacity, any traffic pins utilization at
// the cap instead of dividing by ~zero.
TEST(MemoryTier, ZeroCapacitySaturatesUtilization) {
  TierSpec spec = TierSpec::LocalDram(kGiB);
  spec.read_bw_mbps = 0.0;
  spec.write_bw_mbps = 0.0;
  MemoryTier tier(spec);
  EXPECT_DOUBLE_EQ(tier.Utilization(), 0.0);  // No traffic yet: idle.
  tier.AccessCost(0, 64, /*is_write=*/false);
  EXPECT_DOUBLE_EQ(tier.Utilization(), MemoryTier::kMaxUtilization);
}

}  // namespace
}  // namespace demeter
