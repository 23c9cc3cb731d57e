#include "src/mmu/page_table.h"

#include <algorithm>
#include <bit>

#include "src/base/logging.h"

namespace demeter {

static_assert(sizeof(uintptr_t) == sizeof(uint64_t), "entries hold node addresses");

PageTable::PageTable() { nodes_.push_back(std::make_unique<Node>()); }
PageTable::~PageTable() = default;

PageTable::Node* PageTable::FindLeaf(PageNum vpn) const {
  if (vpn >= kMaxPage) {
    return nullptr;  // Beyond the tree: IndexAt would alias a lower page.
  }
  const PageNum tag = vpn >> kBitsPerLevel;
  LeafCacheSlot& slot = leaf_cache_[static_cast<size_t>(tag) & leaf_cache_mask_];
  if (slot.tag == tag && slot.epoch == structure_epoch_) {
    return slot.leaf;
  }
  Node* node = root();
  for (int level = 0; level < kLevels - 1; ++level) {
    Node* child = ChildAt(*node, IndexAt(vpn, level));
    if (child == nullptr) {
      return nullptr;  // Absent subtrees are not cached (Map may create them).
    }
    node = child;
  }
  slot.tag = tag;
  slot.leaf = node;
  slot.epoch = structure_epoch_;
  return node;
}

uint64_t* PageTable::FindEntry(PageNum vpn) const {
  Node* leaf = FindLeaf(vpn);
  if (leaf == nullptr) {
    return nullptr;
  }
  return &leaf->entries[static_cast<size_t>(IndexAt(vpn, kLevels - 1))];
}

uint64_t* PageTable::FindOrCreateEntry(PageNum vpn) {
  Node* node = root();
  bool created = false;
  for (int level = 0; level < kLevels - 1; ++level) {
    uint64_t& entry = node->entries[static_cast<size_t>(IndexAt(vpn, level))];
    if (entry == 0) {
      nodes_.push_back(std::make_unique<Node>());
      entry = reinterpret_cast<uintptr_t>(nodes_.back().get());
      created = true;
    }
    node = reinterpret_cast<Node*>(static_cast<uintptr_t>(entry));
  }
  if (created) {
    // Structure changed: conservatively invalidate the whole walk cache by
    // bumping the epoch (node creation is rare — once per 512 mapped pages
    // in the worst case — next to the walks the cache serves). The last
    // level created is always a leaf, and an emptied cache can be resized.
    ++structure_epoch_;
    ++leaf_nodes_;
    const size_t want =
        std::min<size_t>(std::bit_ceil(kLeafCacheSlotsPerLeaf * leaf_nodes_), kMaxLeafCacheSlots);
    if (want > leaf_cache_.size()) {
      leaf_cache_.assign(want, LeafCacheSlot{});
      leaf_cache_mask_ = want - 1;
    }
  }
  return &node->entries[static_cast<size_t>(IndexAt(vpn, kLevels - 1))];
}

void PageTable::ReleaseStorage() {
  DEMETER_CHECK_EQ(mapped_count_, 0u) << "releasing a page table that still maps pages";
  nodes_.resize(1);
  nodes_.shrink_to_fit();
  root()->entries.fill(0);
  leaf_nodes_ = 0;
  std::vector<LeafCacheSlot>(1).swap(leaf_cache_);
  leaf_cache_mask_ = 0;
}

bool PageTable::Map(PageNum vpn, uint64_t target, bool writable) {
  DEMETER_CHECK_LT(vpn, kMaxPage);
  uint64_t* pte = FindOrCreateEntry(vpn);
  if ((*pte & PteFlags::kPresent) != 0) {
    return false;
  }
  *pte = (target << PteFlags::kTargetShift) | PteFlags::kPresent |
         (writable ? PteFlags::kWritable : 0);
  ++mapped_count_;
  return true;
}

uint64_t PageTable::Unmap(PageNum vpn) {
  uint64_t* pte = FindEntry(vpn);
  if (pte == nullptr || (*pte & PteFlags::kPresent) == 0) {
    return ~0ULL;
  }
  const uint64_t target = *pte >> PteFlags::kTargetShift;
  *pte = 0;
  --mapped_count_;
  return target;
}

bool PageTable::Remap(PageNum vpn, uint64_t new_target) {
  uint64_t* pte = FindEntry(vpn);
  if (pte == nullptr || (*pte & PteFlags::kPresent) == 0) {
    return false;
  }
  // Migration-entry semantics: only the target changes; Writable, Accessed
  // and Dirty travel with the page (clearing D here silently lost the "page
  // was written since last writeback/track" fact across every migration).
  const uint64_t flags =
      *pte & (PteFlags::kWritable | PteFlags::kAccessed | PteFlags::kDirty);
  const bool was_dirty = (*pte & PteFlags::kDirty) != 0;
  *pte = (new_target << PteFlags::kTargetShift) | PteFlags::kPresent | flags;
  ++remap_count_;
  if (was_dirty && (*pte & PteFlags::kDirty) == 0) {
    ++remap_dirty_lost_;  // Structurally unreachable; audited by --check.
  }
  return true;
}

PageTable::WalkResult PageTable::TranslateCold(PageNum vpn, bool is_write, bool set_bits) {
  WalkResult result;
  // Memoized walk: a warm leaf-cache slot replaces the radix descent (the
  // warm case is fully inlined in the header; this cold tail still probes
  // via FindLeaf, which installs the slot on a successful descent). Cost
  // accounting is unchanged — a cached leaf exists, so the descent it
  // replaces would have touched exactly kLevels entries; partial (faulting)
  // walks never come from the cache and still report their true depth.
  if (vpn >= kMaxPage) {
    return result;  // Never mapped, and no level is walked.
  }
  Node* node = FindLeaf(vpn);
  if (node == nullptr) {
    // Absent subtree: count the levels actually touched, as before.
    Node* cursor = root();
    for (int level = 0; level < kLevels - 1; ++level) {
      ++result.levels_touched;
      Node* child = ChildAt(*cursor, IndexAt(vpn, level));
      if (child == nullptr) {
        return result;
      }
      cursor = child;
    }
    DEMETER_CHECK(false) << "FindLeaf returned null for a complete subtree";
  }
  result.levels_touched = kLevels;
  uint64_t& pte = node->entries[static_cast<size_t>(IndexAt(vpn, kLevels - 1))];
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

PageTable::WalkResult PageTable::Lookup(PageNum vpn) const {
  WalkResult result;
  const uint64_t* pte = FindEntry(vpn);
  if (pte == nullptr || (*pte & PteFlags::kPresent) == 0) {
    return result;
  }
  result.present = true;
  result.target = *pte >> PteFlags::kTargetShift;
  result.was_accessed = (*pte & PteFlags::kAccessed) != 0;
  result.was_dirty = (*pte & PteFlags::kDirty) != 0;
  result.levels_touched = kLevels;
  return result;
}

bool PageTable::TestAndClearAccessed(PageNum vpn) {
  uint64_t* pte = FindEntry(vpn);
  if (pte == nullptr || (*pte & PteFlags::kPresent) == 0) {
    return false;
  }
  const bool was = (*pte & PteFlags::kAccessed) != 0;
  *pte &= ~PteFlags::kAccessed;
  return was;
}

bool PageTable::TestAndClearDirty(PageNum vpn) {
  uint64_t* pte = FindEntry(vpn);
  if (pte == nullptr || (*pte & PteFlags::kPresent) == 0) {
    return false;
  }
  const bool was = (*pte & PteFlags::kDirty) != 0;
  *pte &= ~PteFlags::kDirty;
  return was;
}

template <typename Fn>
uint64_t PageTable::VisitRange(Node* node, int level, PageNum node_base, PageNum begin,
                               PageNum end, const Fn& fn) const {
  // Page span covered by one slot at this level.
  const int shift = kBitsPerLevel * (kLevels - 1 - level);
  const PageNum span = 1ULL << shift;
  uint64_t touched = 0;
  for (int i = 0; i < kFanout; ++i) {
    const PageNum slot_begin = node_base + static_cast<PageNum>(i) * span;
    const PageNum slot_end = slot_begin + span;
    if (slot_end <= begin || slot_begin >= end) {
      continue;
    }
    if (level == kLevels - 1) {
      uint64_t& pte = node->entries[static_cast<size_t>(i)];
      ++touched;
      if ((pte & PteFlags::kPresent) != 0) {
        fn(slot_begin, pte);
      }
    } else {
      Node* child = ChildAt(*node, i);
      if (child != nullptr) {
        ++touched;
        touched += VisitRange(child, level + 1, slot_begin, begin, end, fn);
      }
    }
  }
  return touched;
}

uint64_t PageTable::ForEachPresent(PageNum begin, PageNum end, const Visitor& visitor) const {
  return VisitRange(root(), 0, 0, begin, end, [&](PageNum vpn, uint64_t& pte) {
    visitor(vpn, pte >> PteFlags::kTargetShift, (pte & PteFlags::kAccessed) != 0,
            (pte & PteFlags::kDirty) != 0);
  });
}

uint64_t PageTable::ScanAndClearAccessed(PageNum begin, PageNum end, const Visitor& visitor) {
  return VisitRange(root(), 0, 0, begin, end, [&](PageNum vpn, uint64_t& pte) {
    const bool accessed = (pte & PteFlags::kAccessed) != 0;
    const bool dirty = (pte & PteFlags::kDirty) != 0;
    pte &= ~PteFlags::kAccessed;
    visitor(vpn, pte >> PteFlags::kTargetShift, accessed, dirty);
  });
}

}  // namespace demeter
