#include "src/guest/numa_node.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/base/rng.h"

namespace demeter {

NumaNode::NumaNode(int id, PageNum gpa_base, uint64_t span_pages, uint64_t present_pages,
                   uint64_t shuffle_seed)
    : id_(id),
      gpa_base_(gpa_base),
      span_pages_(span_pages),
      present_pages_(present_pages),
      initial_present_pages_(present_pages) {
  DEMETER_CHECK_LE(span_pages, uint64_t{1} << 32)
      << "node " << id << " spans " << span_pages << " pages; offsets must fit 32 bits";
  DEMETER_CHECK_LE(present_pages, span_pages);
  free_list_.reserve(present_pages);
  // Low gPAs first out of the LIFO.
  for (uint64_t i = present_pages; i > 0; --i) {
    free_list_.push_back(static_cast<uint32_t>(i - 1));
  }
  if (shuffle_seed != 0 && present_pages > 1) {
    // Fisher-Yates with the node's seed: deterministic fragmentation.
    Rng rng(shuffle_seed + static_cast<uint64_t>(id));
    for (uint64_t i = present_pages - 1; i > 0; --i) {
      std::swap(free_list_[i], free_list_[rng.NextBelow(i + 1)]);
    }
  }
}

std::optional<PageNum> NumaNode::AllocPage() {
  if (free_list_.empty()) {
    return std::nullopt;
  }
  const PageNum gpa = gpa_base_ + free_list_.back();
  free_list_.pop_back();
  return gpa;
}

void NumaNode::FreePage(PageNum gpa) {
  DEMETER_CHECK(ContainsGpa(gpa)) << "page " << gpa << " not in node " << id_;
  DEMETER_CHECK_LT(free_list_.size(), present_pages_);
  free_list_.push_back(static_cast<uint32_t>(gpa - gpa_base_));
}

uint64_t NumaNode::BalloonTake(uint64_t n, std::vector<PageNum>* taken) {
  const uint64_t count = std::min<uint64_t>(n, free_list_.size());
  for (uint64_t i = 0; i < count; ++i) {
    taken->push_back(gpa_base_ + free_list_.back());
    free_list_.pop_back();
  }
  present_pages_ -= count;
  return count;
}

void NumaNode::BalloonReturn(const std::vector<PageNum>& pages) {
  for (PageNum gpa : pages) {
    DEMETER_CHECK(ContainsGpa(gpa));
    free_list_.push_back(static_cast<uint32_t>(gpa - gpa_base_));
  }
  present_pages_ += pages.size();
  DEMETER_CHECK_LE(present_pages_, span_pages_);
}

}  // namespace demeter
