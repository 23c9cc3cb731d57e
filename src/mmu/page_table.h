// Four-level radix page table with Access/Dirty bits.
//
// One implementation serves both dimensions of 2D paging:
//   * GPT: guest virtual page -> guest physical page (guest-managed)
//   * EPT: guest physical page -> host frame (hypervisor-managed)
//
// The structure is a real 512-ary radix tree (9 bits per level, 4 levels,
// 36-bit page numbers = 48-bit address spaces) so that page-table scans cost
// what they cost on hardware: visitors report the number of entries touched,
// which access-tracking baselines charge as CPU time. As in hardware, every
// node is one 4 KiB table of 512 64-bit entries: a leaf entry is a PTE, an
// upper-level entry holds the next-level node. Page numbers at or above
// kMaxPage are never mapped: Map rejects them, and every other query
// reports them not present, with no levels touched.

#ifndef DEMETER_SRC_MMU_PAGE_TABLE_H_
#define DEMETER_SRC_MMU_PAGE_TABLE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/units.h"

namespace demeter {

// Leaf PTE layout: target page number shifted left 8, low bits are flags.
struct PteFlags {
  static constexpr uint64_t kPresent = 1ULL << 0;
  static constexpr uint64_t kWritable = 1ULL << 1;
  static constexpr uint64_t kAccessed = 1ULL << 2;
  static constexpr uint64_t kDirty = 1ULL << 3;
  static constexpr int kTargetShift = 8;
};

class PageTable {
 public:
  static constexpr int kLevels = 4;
  static constexpr int kBitsPerLevel = 9;
  static constexpr int kFanout = 1 << kBitsPerLevel;  // 512
  static constexpr PageNum kMaxPage = 1ULL << (kLevels * kBitsPerLevel);

  struct WalkResult {
    bool present = false;
    uint64_t target = 0;    // Target page number when present.
    int levels_touched = 0; // Radix levels visited (<= kLevels).
    bool was_accessed = false;
    bool was_dirty = false;
  };

  PageTable();
  ~PageTable();

  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;
  PageTable(PageTable&&) = default;
  PageTable& operator=(PageTable&&) = default;

  // Installs vpn -> target. Returns false if vpn was already mapped.
  bool Map(PageNum vpn, uint64_t target, bool writable);

  // Removes the mapping. Returns the old target, or ~0 if not mapped.
  uint64_t Unmap(PageNum vpn);

  // Re-points an existing mapping at a new target, preserving the
  // Writable/Accessed/Dirty flags (Linux migration-entry semantics: a page
  // that is dirty or young at migration time stays dirty/young at its new
  // location). Returns false if vpn was not mapped.
  bool Remap(PageNum vpn, uint64_t new_target);

  // Hardware-walk emulation: descends the tree; when `set_bits` is true and
  // the leaf is present, sets Accessed (and Dirty on writes). The warm
  // leaf-cache case is inlined here — it runs on every translation the TLB
  // does not absorb, plus twice per TLB-hit write (the dirty micro-walk) —
  // and the cold descent stays out of line.
  WalkResult Translate(PageNum vpn, bool is_write, bool set_bits) {
    const PageNum tag = vpn >> kBitsPerLevel;
    const LeafCacheSlot& slot = leaf_cache_[static_cast<size_t>(tag) & leaf_cache_mask_];
    if (slot.tag == tag && slot.epoch == structure_epoch_) {
      WalkResult result;
      result.levels_touched = kLevels;
      uint64_t& pte = slot.leaf->entries[static_cast<size_t>(IndexAt(vpn, kLevels - 1))];
      if ((pte & PteFlags::kPresent) == 0) {
        return result;
      }
      result.present = true;
      result.target = pte >> PteFlags::kTargetShift;
      result.was_accessed = (pte & PteFlags::kAccessed) != 0;
      result.was_dirty = (pte & PteFlags::kDirty) != 0;
      if (set_bits) {
        pte |= PteFlags::kAccessed;
        if (is_write) {
          pte |= PteFlags::kDirty;
        }
      }
      return result;
    }
    return TranslateCold(vpn, is_write, set_bits);
  }

  // Point query without side effects.
  WalkResult Lookup(PageNum vpn) const;

  bool IsMapped(PageNum vpn) const { return Lookup(vpn).present; }

  // Clears the Accessed bit; returns its prior value. No-op on unmapped.
  bool TestAndClearAccessed(PageNum vpn);
  bool TestAndClearDirty(PageNum vpn);

  // Visits every present PTE in [begin, end). The visitor receives the vpn,
  // the target, and accessed/dirty state. Returns the number of PTEs
  // *touched* — i.e. present entries plus the per-node scan work — which
  // callers use for cost accounting.
  using Visitor = std::function<void(PageNum vpn, uint64_t target, bool accessed, bool dirty)>;
  uint64_t ForEachPresent(PageNum begin, PageNum end, const Visitor& visitor) const;

  // Scan-and-clear of Accessed bits over [begin, end): the visitor sees each
  // present PTE with its pre-clear accessed state; all A bits in range end up
  // cleared. Returns entries touched (cost).
  uint64_t ScanAndClearAccessed(PageNum begin, PageNum end, const Visitor& visitor);

  uint64_t mapped_count() const { return mapped_count_; }

  // Frees every node below the root of a table that maps nothing (its VM
  // has left the host) and shrinks the leaf cache to one slot. Later calls
  // find nothing, as on the emptied table; the remap counters keep their
  // values.
  void ReleaseStorage();

  // ---- Audit hooks (InvariantChecker) -------------------------------------
  // Remaps performed, and remaps that dropped a set Dirty bit. The second
  // counter is the cross-layer invariant "migration never loses dirty
  // state": Remap preserves A/D by construction, and the checker asserts
  // this stays zero so any future Remap edit that regresses it is caught by
  // every `--check` run, not just the unit test.
  uint64_t remap_count() const { return remap_count_; }
  uint64_t remap_dirty_lost() const { return remap_dirty_lost_; }

 private:
  // One radix node. A leaf-level entry is a PTE (PteFlags); an upper-level
  // entry holds the address of the next-level node, 0 when that subtree is
  // absent.
  struct Node {
    std::array<uint64_t, kFanout> entries{};
  };
  static_assert(sizeof(Node) == 4096, "a node is one hardware-sized 4 KiB table");

  static int IndexAt(PageNum vpn, int level) {
    return static_cast<int>((vpn >> (kBitsPerLevel * (kLevels - 1 - level))) & (kFanout - 1));
  }

  // Memoized descent: maps vpn's leaf-node tag (vpn >> kBitsPerLevel) to the
  // leaf Node* so hot regions skip the 3-level pointer chase. Entries are
  // validated against structure_epoch_, which bumps whenever the radix tree
  // allocates a node; ReleaseStorage, which frees nodes, replaces the cache
  // with one empty slot. Only successful full descents are cached,
  // so cost accounting (levels_touched) is byte-identical: a cached leaf
  // means the uncached walk would have touched exactly kLevels entries.
  //
  // The cache holds the power of two at or above four slots per leaf node,
  // up to kMaxLeafCacheSlots. One slot per leaf would alias an EPT's two
  // node windows: the slow node's gPAs start at the VM's page count, a
  // multiple of such a size, so its first leaves would share slots with
  // the fast node's. The cache grows when a new leaf is allocated, where
  // the epoch bump has already emptied it.
  struct LeafCacheSlot {
    PageNum tag = ~0ULL;
    Node* leaf = nullptr;
    uint64_t epoch = 0;
  };
  static constexpr size_t kLeafCacheSlotsPerLeaf = 4;
  static constexpr size_t kMaxLeafCacheSlots = 1024;  // Power of two.
  static_assert((kMaxLeafCacheSlots & (kMaxLeafCacheSlots - 1)) == 0);

  // Leaf node containing vpn's PTE, or nullptr if the subtree is absent.
  // Serves from the leaf cache when warm; installs on a successful descent.
  Node* FindLeaf(PageNum vpn) const;

  // Out-of-line tail of Translate(): cold leaf cache — full descent (which
  // installs the cache slot) or a partial walk over an absent subtree.
  WalkResult TranslateCold(PageNum vpn, bool is_write, bool set_bits);

  // The node an upper-level entry points at, or nullptr when absent.
  static Node* ChildAt(const Node& node, int index) {
    const uint64_t entry = node.entries[static_cast<size_t>(index)];
    return reinterpret_cast<Node*>(static_cast<uintptr_t>(entry));
  }

  Node* root() const { return nodes_.front().get(); }

  uint64_t* FindEntry(PageNum vpn) const;
  uint64_t* FindOrCreateEntry(PageNum vpn);

  template <typename Fn>
  uint64_t VisitRange(Node* node, int level, PageNum node_base, PageNum begin, PageNum end,
                      const Fn& fn) const;

  // Owns every node; the root is first. Nodes are freed only by
  // ReleaseStorage, which clears the root and empties the leaf cache, so no
  // entry or cached leaf can reach a freed node.
  std::vector<std::unique_ptr<Node>> nodes_;
  uint64_t mapped_count_ = 0;
  uint64_t leaf_nodes_ = 0;
  uint64_t structure_epoch_ = 1;
  // Slot `tag & leaf_cache_mask_` caches `tag`; the size is a power of two.
  mutable std::vector<LeafCacheSlot> leaf_cache_ = std::vector<LeafCacheSlot>(1);
  size_t leaf_cache_mask_ = 0;
  uint64_t remap_count_ = 0;
  uint64_t remap_dirty_lost_ = 0;
};

}  // namespace demeter

#endif  // DEMETER_SRC_MMU_PAGE_TABLE_H_
