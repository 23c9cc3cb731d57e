#include "src/guest/address_space.h"

#include "src/base/logging.h"

namespace demeter {

AddressSpace::AddressSpace() : brk_(kStartBrk), mmap_floor_(kMmapBase) {
  vmas_.push_back(Vma{kCodeStart, kCodeStart + kCodeSize, VmaKind::kCode, false});
  vmas_.push_back(
      Vma{kCodeStart + kCodeSize, kCodeStart + kCodeSize + kDataSize, VmaKind::kData, false});
  vmas_.push_back(Vma{kStackTop - kStackSize, kStackTop, VmaKind::kStack, false});
  // Heap VMA starts empty and grows with Sbrk.
  vmas_.push_back(Vma{kStartBrk, kStartBrk, VmaKind::kHeap, true});
  heap_vma_index_ = vmas_.size() - 1;
}

uint64_t AddressSpace::Sbrk(uint64_t bytes) {
  const uint64_t old_brk = brk_;
  brk_ = PageCeil(brk_ + bytes);
  DEMETER_CHECK_LT(brk_, mmap_floor_) << "heap ran into mmap area";
  vmas_[heap_vma_index_].end = brk_;
  return old_brk;
}

uint64_t AddressSpace::Mmap(uint64_t bytes) {
  const uint64_t size = PageCeil(bytes);
  DEMETER_CHECK_GT(size, 0u);
  // One guard page between mappings, like the kernel's gap.
  const uint64_t start = mmap_floor_ - size - kPageSize;
  DEMETER_CHECK_GT(start, brk_) << "mmap area ran into heap";
  mmap_floor_ = start;
  vmas_.push_back(Vma{start, start + size, VmaKind::kMmap, true});
  return start;
}

void AddressSpace::RestoreLayout(const std::vector<Vma>& vmas, uint64_t brk,
                                 uint64_t mmap_floor) {
  DEMETER_CHECK(brk_ == kStartBrk && mmap_floor_ == kMmapBase)
      << "RestoreLayout on a used address space";
  DEMETER_CHECK_GE(brk, kStartBrk);
  DEMETER_CHECK_LE(mmap_floor, kMmapBase);
  vmas_ = vmas;
  brk_ = brk;
  mmap_floor_ = mmap_floor;
  heap_vma_index_ = vmas_.size();
  for (size_t i = 0; i < vmas_.size(); ++i) {
    if (vmas_[i].kind == VmaKind::kHeap) {
      heap_vma_index_ = i;
      break;
    }
  }
  DEMETER_CHECK_LT(heap_vma_index_, vmas_.size()) << "restored layout has no heap VMA";
}

const Vma* AddressSpace::FindVma(uint64_t addr) const {
  for (const Vma& vma : vmas_) {
    if (vma.Contains(addr)) {
      return &vma;
    }
  }
  return nullptr;
}

uint64_t AddressSpace::TrackedBytes() const {
  uint64_t total = 0;
  for (const Vma& vma : vmas_) {
    if (vma.tracked) {
      total += vma.size();
    }
  }
  return total;
}

}  // namespace demeter
