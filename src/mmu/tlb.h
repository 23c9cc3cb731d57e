// Set-associative TLB caching flattened 2D translations (gVA -> hPA).
//
// Two invalidation instructions are modelled, matching the paper's taxonomy:
//   * single-address (invlpg / invvpid / invpcid): evicts one gVA
//   * full EPT invalidation (invept): evicts everything derived from an EPT
//
// Hypervisor-based access tracking (which sees only gPA/hPA) must use the
// full invalidation to re-arm PTE.A/D observation; guest-based tracking can
// use single-address invalidations because it knows the gVA. Table 1 counts
// exactly these two instruction kinds.
//
// Storage is 12.5 bytes per entry in three set-major arrays (way w of set s
// lives at s*ways_ + w):
//   * tags_: one word per way, `epoch << kVpnBits | vpn`. A probe compares
//     one precomputed word per way, and a set's eight tags are 64
//     contiguous bytes. Liveness is encoded in the epoch field alone: an
//     entry is live iff its epoch equals the TLB's current epoch. Tag 0 is
//     the never-valid/invalidated sentinel (the current epoch is never 0).
//   * frames_: the payload, loaded only for the hitting way. A frame id is
//     32 bits wide (HostMemory refuses a host with more frames), so the
//     payload is too.
//   * order_: one word per set listing its ways most-recent-first, 4 bits
//     per way. A way moves to the front on every hit and every insert —
//     exactly where a per-entry LRU tick would be bumped — so the list keeps
//     the ticks' relative order, and the last way is the one the lowest
//     tick would name.

#ifndef DEMETER_SRC_MMU_TLB_H_
#define DEMETER_SRC_MMU_TLB_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "src/base/logging.h"
#include "src/base/units.h"
#include "src/mem/host_memory.h"
#include "src/mmu/page_table.h"

namespace demeter {

struct TlbStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t single_flushes = 0;  // invlpg/invvpid/invpcid instructions.
  uint64_t full_flushes = 0;    // invept instructions.

  void Merge(const TlbStats& other) {
    hits += other.hits;
    misses += other.misses;
    single_flushes += other.single_flushes;
    full_flushes += other.full_flushes;
  }
};

class Tlb {
 public:
  // A tag holds any mappable page number (below PageTable::kMaxPage) in
  // its low 36 bits; the epoch takes the remaining 28.
  static constexpr int kVpnBits = PageTable::kLevels * PageTable::kBitsPerLevel;
  static constexpr uint64_t kMaxEpoch = (uint64_t{1} << (64 - kVpnBits)) - 1;
  static constexpr int kMaxWays = 8;  // 4-bit way numbers in a 32-bit order word.

  // Default geometry models an STLB whose reach is amplified by transparent
  // hugepages (the guests run THP: one 2 MiB entry per 512 base pages), so
  // steady-state coverage approximates the working set — which is what makes
  // full invalidations so destructive and tier latency, not translation,
  // the dominant access cost.
  explicit Tlb(int num_sets = 1024, int ways = 8);

  // Looks up gVA page `vpn`; returns the cached hPA frame or kInvalidFrame.
  FrameId Lookup(PageNum vpn) {
    if (!Cacheable(vpn)) {
      ++stats_.misses;
      return kInvalidFrame;
    }
    const size_t set = SetOf(vpn);
    const size_t base = set * static_cast<size_t>(ways_);
    const uint64_t tag = TagOf(vpn);
    for (int w = 0; w < ways_; ++w) {
      if (tags_[base + static_cast<size_t>(w)] == tag) {
        Touch(set, w);
        ++stats_.hits;
        return frames_[base + static_cast<size_t>(w)];
      }
    }
    ++stats_.misses;
    return kInvalidFrame;
  }

  // Accounts a hit whose set scan was skipped because the probing vCPU just
  // translated the same page (ExecuteBatch's same-page run coalescing). The
  // hit counter advances exactly as Lookup would have; the recency list is
  // NOT touched — the run's first probe already moved the entry to the
  // front of its set, and moving the front way to the front is a no-op, so
  // victim selection is unaffected.
  void CountCoalescedHit() { ++stats_.hits; }

  // Installs vpn -> frame after a successful walk.
  void Insert(PageNum vpn, FrameId frame) {
    DEMETER_CHECK(Cacheable(vpn)) << "vpn " << vpn << " is outside the 36-bit page space";
    DEMETER_CHECK_LT(frame, kMaxFrames) << "frame is outside the 32-bit frame space";
    const uint32_t payload = static_cast<uint32_t>(frame);
    const size_t set = SetOf(vpn);
    const size_t base = set * static_cast<size_t>(ways_);
    const uint64_t tag = TagOf(vpn);
    // Victim choice, in way order: a same-vpn live entry is updated in
    // place; otherwise the LAST non-live way wins, and only when every way
    // is live does LRU (the last way in the recency list) pick.
    int victim = -1;
    for (int w = 0; w < ways_; ++w) {
      const size_t i = base + static_cast<size_t>(w);
      if (tags_[i] == tag) {
        frames_[i] = payload;
        Touch(set, w);
        return;
      }
      if ((tags_[i] >> kVpnBits) != epoch_) {
        victim = w;
      }
    }
    if (victim < 0) {
      victim = static_cast<int>((order_[set] >> (4 * (ways_ - 1))) & 0xF);
    }
    tags_[base + static_cast<size_t>(victim)] = tag;
    frames_[base + static_cast<size_t>(victim)] = payload;
    Touch(set, victim);
  }

  // Single-address invalidation (guest knows the gVA).
  void InvalidatePage(PageNum vpn) {
    ++stats_.single_flushes;
    if (!Cacheable(vpn)) {
      return;
    }
    const size_t base = SetOf(vpn) * static_cast<size_t>(ways_);
    const uint64_t tag = TagOf(vpn);
    for (int w = 0; w < ways_; ++w) {
      const size_t i = base + static_cast<size_t>(w);
      if (tags_[i] == tag) {
        tags_[i] = 0;  // Sentinel: dead until re-inserted.
        return;
      }
    }
  }

  // Full invalidation of all entries (invept; also used for CR3-class full
  // flushes). The paper's full-invalidation counter counts these. Besides
  // dropping every translation, a full invalidation also destroys the
  // paging-structure caches, so the refill walks that follow are slower:
  // ConsumeWalkFactor() returns the cost multiplier for the next miss.
  //
  // O(1): instead of sweeping sets*ways entries, the TLB carries a
  // generation counter (epoch); every tag carries the epoch it was inserted
  // under, and entries from older epochs are treated exactly like invalid
  // ones everywhere (lookup, victim selection, audits). Policies that
  // full-flush per scan round (hypervisor-side designs flush every epoch)
  // used to pay an 8K-entry sweep per flush. Only when the 28-bit epoch
  // field would overflow are the tags swept, once per kMaxEpoch flushes.
  void InvalidateAll();

  // Walk-cost multiplier for a miss happening now; decays as the
  // paging-structure caches rewarm (call once per miss).
  double ConsumeWalkFactor() {
    if (cold_walks_ == 0) {
      return 1.0;
    }
    --cold_walks_;
    return kColdWalkFactor;
  }

  // Read-only walk over every valid entry in index order, for audits:
  // fn(vpn, frame).
  template <typename Fn>
  void ForEachValid(Fn&& fn) const {
    for (size_t i = 0; i < tags_.size(); ++i) {
      if ((tags_[i] >> kVpnBits) == epoch_) {
        fn(tags_[i] & kVpnMask, static_cast<FrameId>(frames_[i]));
      }
    }
  }

  const TlbStats& stats() const { return stats_; }
  void ClearStats() { stats_ = TlbStats{}; }

  int capacity() const { return num_sets_ * ways_; }

  // Frees the arrays of a TLB whose VM has left its host, keeping one set
  // of never-valid tags: SetOf then maps every page to that set, so every
  // probe misses with no branch added to Lookup or Insert. Stats, the
  // epoch, the cold-walk budget and capacity() are unchanged, so flushes
  // still count and ForEachValid visits nothing, as after InvalidateAll.
  void ReleaseStorage();

 private:
  static constexpr uint64_t kVpnMask = (uint64_t{1} << kVpnBits) - 1;

  // A page number the tag can hold; no larger one is ever mapped.
  static bool Cacheable(PageNum vpn) { return (vpn >> kVpnBits) == 0; }

  uint64_t TagOf(PageNum vpn) const { return (epoch_ << kVpnBits) | vpn; }

  size_t SetOf(PageNum vpn) const {
    // Multiplicative hash spreads contiguous pages across sets. Lemire's
    // fastmod then gives (h >> 32) % num_sets_ without a division: it
    // equals `%` for every 32-bit numerator and divisor.
    const uint64_t h32 = (vpn * 0x9e3779b97f4a7c15ULL) >> 32;
    return static_cast<size_t>(
        (static_cast<__uint128_t>(set_magic_ * h32) * static_cast<uint64_t>(num_sets_)) >> 64);
  }

  // Moves `way` to the front of its set's recency list.
  void Touch(size_t set, int way) {
    uint32_t& order = order_[set];
    const uint32_t w = static_cast<uint32_t>(way);
    // `way`'s place is the lowest zero nibble of x. Every place ahead of it
    // holds another way, so its nibble of x is nonzero and lends no borrow
    // to the test; the zero padding of a set with fewer than 8 ways lies
    // behind every way.
    const uint32_t x = order ^ (0x11111111u * w);
    const int pos = std::countr_zero((x - 0x11111111u) & ~x & 0x88888888u) / 4;
    // The ways ahead of `way` move back one place; `way` takes place 0.
    const uint64_t ahead = (uint64_t{1} << (4 * pos)) - 1;
    const uint64_t through = (ahead << 4) | 0xF;
    order = static_cast<uint32_t>((order & ~through) | ((order & ahead) << 4) | w);
  }

  int num_sets_;
  int ways_;
  // UINT64_MAX / num_sets_ + 1: SetOf's fastmod inverse. 0 sends every page
  // to set 0 (one set, or a released TLB).
  uint64_t set_magic_ = 0;
  std::vector<uint64_t> tags_;  // epoch << kVpnBits | vpn; 0 = never valid.
  std::vector<uint32_t> frames_;  // Frame ids, all below kMaxFrames.
  std::vector<uint32_t> order_;  // Per set: ways most-recent-first, 4 bits each.
  uint64_t epoch_ = 1;           // 1..kMaxEpoch; bumped by InvalidateAll.
  uint64_t cold_walks_ = 0;      // Misses left that pay the cold-walk multiplier.
  TlbStats stats_;

  static constexpr double kColdWalkFactor = 2.5;
};

}  // namespace demeter

#endif  // DEMETER_SRC_MMU_TLB_H_
