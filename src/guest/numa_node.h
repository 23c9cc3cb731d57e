// Guest NUMA node: a range of guest-physical pages corresponding to one
// host memory tier (§3.3 "NUMA-Based Tier Exposure").
//
// Each node's gPA span equals 100% of the VM's total memory so the balloon
// can shift composition smoothly between all-FMEM and all-SMEM; only
// `present` pages are usable at any moment. The node hands out pages LIFO
// and exposes the balloon take/return interface plus Linux-style
// min/low/high watermarks that drive reclaim.

#ifndef DEMETER_SRC_GUEST_NUMA_NODE_H_
#define DEMETER_SRC_GUEST_NUMA_NODE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/base/units.h"

namespace demeter {

class NumaNode {
 public:
  // `span_pages`: size of the node's gPA window (the balloon maximum), at
  // most 2^32 pages so that a page's offset in the node fits 32 bits.
  // `present_pages`: pages initially usable (the rest start ballooned out).
  // A non-zero `shuffle_seed` randomizes the free-list order, modelling the
  // fragmentation of a previously used kernel allocator — the reason
  // physical placement follows access order rather than address order
  // (Figure 4).
  NumaNode(int id, PageNum gpa_base, uint64_t span_pages, uint64_t present_pages,
           uint64_t shuffle_seed = 0);

  int id() const { return id_; }
  PageNum gpa_base() const { return gpa_base_; }
  PageNum gpa_end() const { return gpa_base_ + span_pages_; }
  bool ContainsGpa(PageNum gpa) const { return gpa >= gpa_base() && gpa < gpa_end(); }

  // Page allocation (guest kernel buddy front end).
  std::optional<PageNum> AllocPage();
  void FreePage(PageNum gpa);

  // Balloon interface: removes up to `n` free pages from the node (inflate)
  // or returns previously taken pages (deflate). Inflation can only take
  // free pages; the caller reclaims first if it wants more.
  uint64_t BalloonTake(uint64_t n, std::vector<PageNum>* taken);
  void BalloonReturn(const std::vector<PageNum>& pages);

  uint64_t span_pages() const { return span_pages_; }
  uint64_t present_pages() const { return present_pages_; }
  // Boot-time present size; present + balloon-held must always equal this
  // (the conservation invariant the checker audits).
  uint64_t initial_present_pages() const { return initial_present_pages_; }
  uint64_t free_pages() const { return free_list_.size(); }
  uint64_t used_pages() const { return present_pages_ - free_pages(); }

  // Linux-style watermarks, as fractions of present pages.
  uint64_t watermark_min() const { return present_pages_ / 64; }
  uint64_t watermark_low() const { return present_pages_ / 32; }
  uint64_t watermark_high() const { return present_pages_ / 16; }
  bool BelowLow() const { return free_pages() < watermark_low(); }
  bool BelowMin() const { return free_pages() < watermark_min(); }

 private:
  int id_;
  PageNum gpa_base_;
  uint64_t span_pages_;
  uint64_t present_pages_;
  uint64_t initial_present_pages_;
  std::vector<uint32_t> free_list_;  // LIFO of offsets from gpa_base_.
};

}  // namespace demeter

#endif  // DEMETER_SRC_GUEST_NUMA_NODE_H_
