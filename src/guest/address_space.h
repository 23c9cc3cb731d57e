// Process virtual address space: VMAs with Linux-style layout.
//
// The heap grows upward from start_brk and the mmap area grows downward
// from mmap_base. Demeter tracks hotness only in these two regions (§3.2.1):
// code/data/stack are small and inherently hot, so they are excluded from
// range classification (Vma::tracked is false for them).

#ifndef DEMETER_SRC_GUEST_ADDRESS_SPACE_H_
#define DEMETER_SRC_GUEST_ADDRESS_SPACE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/units.h"

namespace demeter {

enum class VmaKind {
  kCode,
  kData,
  kStack,
  kHeap,
  kMmap,
};

struct Vma {
  uint64_t start = 0;  // Inclusive, page-aligned.
  uint64_t end = 0;    // Exclusive, page-aligned.
  VmaKind kind = VmaKind::kHeap;
  bool tracked = false;  // Subject to range-based hotness classification.

  uint64_t size() const { return end - start; }
  bool Contains(uint64_t addr) const { return addr >= start && addr < end; }
};

class AddressSpace {
 public:
  // Linux-x86-64-flavoured layout constants.
  static constexpr uint64_t kCodeStart = 0x0000000000400000;  // 4 MiB.
  static constexpr uint64_t kCodeSize = 2 * kMiB;
  static constexpr uint64_t kDataSize = 4 * kMiB;
  static constexpr uint64_t kStartBrk = 0x0000000010000000;   // 256 MiB.
  static constexpr uint64_t kMmapBase = 0x00007f0000000000;   // Grows down.
  static constexpr uint64_t kStackTop = 0x00007ffffffff000;
  static constexpr uint64_t kStackSize = 8 * kMiB;

  AddressSpace();

  // Extends the heap by `bytes` (page-rounded); returns the start address of
  // the new region (the old brk).
  uint64_t Sbrk(uint64_t bytes);

  // Maps a fresh anonymous region of `bytes` below previous mappings;
  // returns its start address.
  uint64_t Mmap(uint64_t bytes);

  uint64_t brk() const { return brk_; }
  uint64_t mmap_floor() const { return mmap_floor_; }

  const std::vector<Vma>& vmas() const { return vmas_; }
  const Vma* FindVma(uint64_t addr) const;

  // Replaces this space's layout with one captured on another host (live
  // migration restore). Only legal on a freshly constructed space — the
  // workload's region addresses were assigned under the source layout, so
  // the destination must reproduce it exactly before any allocation here.
  void RestoreLayout(const std::vector<Vma>& vmas, uint64_t brk, uint64_t mmap_floor);

  // Total bytes in tracked (heap + mmap) VMAs.
  uint64_t TrackedBytes() const;

 private:
  std::vector<Vma> vmas_;
  uint64_t brk_;
  uint64_t mmap_floor_;  // Lowest address handed out by Mmap so far.
  size_t heap_vma_index_;
};

}  // namespace demeter

#endif  // DEMETER_SRC_GUEST_ADDRESS_SPACE_H_
