#include "src/guest/kernel.h"

#include <algorithm>

#include "src/base/logging.h"

namespace demeter {

GuestKernel::GuestKernel(const GuestKernelConfig& config) : config_(config) {
  DEMETER_CHECK_EQ(config.node_span_pages.size(), static_cast<size_t>(config.num_nodes));
  DEMETER_CHECK_EQ(config.node_present_pages.size(), static_cast<size_t>(config.num_nodes));
  PageNum base = 0;
  for (int i = 0; i < config.num_nodes; ++i) {
    const uint64_t span = config.node_span_pages[static_cast<size_t>(i)];
    const uint64_t present = config.node_present_pages[static_cast<size_t>(i)];
    nodes_.emplace_back(i, base, span, present, config.free_list_shuffle_seed);
    base += span;
  }
  alloc_fifo_.resize(static_cast<size_t>(config.num_nodes));
  rmap_.resize(static_cast<size_t>(config.num_nodes));
}

int GuestKernel::NodeOfGpa(PageNum gpa) const {
  for (const NumaNode& node : nodes_) {
    if (node.ContainsGpa(gpa)) {
      return node.id();
    }
  }
  return -1;
}

GuestProcess& GuestKernel::CreateProcess() {
  const int pid = static_cast<int>(processes_.size()) + 1;
  processes_.push_back(std::make_unique<GuestProcess>(pid));
  return *processes_.back();
}

GuestProcess* GuestKernel::process(int pid) {
  for (auto& p : processes_) {
    if (p->pid() == pid) {
      return p.get();
    }
  }
  return nullptr;
}

std::optional<PageNum> GuestKernel::AllocGpa(int preferred_node, bool allow_fallback,
                                             double* cost_ns) {
  std::optional<PageNum> gpa;
  if (fault_ != nullptr && fault_->ShouldInject(FaultSite::kTierExhaustion, vm_id_)) {
    // Transient exhaustion: the preferred node's free list looks dry for
    // this one allocation, forcing the fallback (or OOM) path below.
  } else {
    gpa = node(preferred_node).AllocPage();
  }
  if (gpa.has_value()) {
    return gpa;
  }
  if (!allow_fallback) {
    return std::nullopt;
  }
  // Fallback in node-id order (node 0 = FMEM is always preferred first by
  // callers; the fallback chain mirrors Linux zonelist ordering).
  for (int i = 0; i < num_nodes(); ++i) {
    if (i == preferred_node) {
      continue;
    }
    gpa = node(i).AllocPage();
    if (gpa.has_value()) {
      ++stats_.fallback_allocs;
      if (cost_ns != nullptr) {
        *cost_ns += 300.0;  // Zonelist walk + remote allocation.
      }
      return gpa;
    }
  }
  ++stats_.oom_failures;
  if (cost_ns != nullptr) {
    // The failed zonelist walk costs the same kernel work as a successful
    // fallback; previously the OOM path charged nothing.
    *cost_ns += 300.0;
  }
  return std::nullopt;
}

const uint64_t* GuestKernel::RmapSlot(PageNum gpa) const {
  const int n = NodeOfGpa(gpa);
  if (n < 0) {
    return nullptr;
  }
  const std::vector<uint64_t>& slots = rmap_[static_cast<size_t>(n)];
  const uint64_t offset = gpa - node(n).gpa_base();
  return offset < slots.size() ? &slots[offset] : nullptr;
}

void GuestKernel::SetRmap(PageNum gpa, uint64_t packed) {
  const int n = NodeOfGpa(gpa);
  DEMETER_CHECK_GE(n, 0) << "gpa " << gpa << " outside every node";
  std::vector<uint64_t>& slots = rmap_[static_cast<size_t>(n)];
  const uint64_t offset = gpa - node(n).gpa_base();
  if (offset >= slots.size()) {
    // Doubling, but never past the node's span, which no offset exceeds.
    if (offset >= slots.capacity()) {
      slots.reserve(std::min<uint64_t>(std::max<uint64_t>(2 * slots.capacity(), offset + 1),
                                       node(n).span_pages()));
    }
    slots.resize(offset + 1, 0);
  }
  mapped_pages_ -= slots[offset] != 0 ? 1 : 0;
  mapped_pages_ += packed != 0 ? 1 : 0;
  slots[offset] = packed;
}

void GuestKernel::FreeGpa(PageNum gpa) {
  const int n = NodeOfGpa(gpa);
  DEMETER_CHECK_GE(n, 0);
  if (const uint64_t* slot = RmapSlot(gpa); slot != nullptr && *slot != 0) {
    SetRmap(gpa, 0);
  }
  node(n).FreePage(gpa);
}

void GuestKernel::DiscardPage(GuestProcess& process, PageNum vpn, PageNum gpa) {
  const uint64_t old = process.gpt().Unmap(vpn);
  DEMETER_CHECK_EQ(old, gpa) << "discard of vpn " << vpn << " mapped elsewhere";
  FreeGpa(gpa);
  ++stats_.sigbus_discards;
}

void GuestKernel::RecordAlloc(PageNum gpa, int pid, PageNum vpn) {
  DEMETER_CHECK(pid > 0 && static_cast<uint64_t>(pid) < (uint64_t{1} << (64 - kRmapVpnBits)))
      << "pid " << pid;
  DEMETER_CHECK_LT(vpn, PageTable::kMaxPage);
  SetRmap(gpa, (static_cast<uint64_t>(pid) << kRmapVpnBits) | vpn);
  PushAllocated(gpa);
}

void GuestKernel::PushAllocated(PageNum gpa) {
  const int n = NodeOfGpa(gpa);
  alloc_fifo_[static_cast<size_t>(n)].push_back(static_cast<uint32_t>(gpa - node(n).gpa_base()));
}

std::optional<PageNum> GuestKernel::HandleFault(GuestProcess& process, PageNum vpn,
                                                double* cost_ns) {
  ++stats_.faults;
  auto gpa = AllocGpa(/*preferred_node=*/0, /*allow_fallback=*/true, cost_ns);
  if (!gpa.has_value()) {
    return std::nullopt;
  }
  DEMETER_CHECK(process.gpt().Map(vpn, *gpa, /*writable=*/true));
  RecordAlloc(*gpa, process.pid(), vpn);
  return gpa;
}

std::optional<PageNum> GuestKernel::AdoptPage(GuestProcess& process, PageNum vpn,
                                              int preferred_node, double* cost_ns) {
  auto gpa = AllocGpa(preferred_node, /*allow_fallback=*/true, cost_ns);
  if (!gpa.has_value()) {
    return std::nullopt;
  }
  DEMETER_CHECK(process.gpt().Map(vpn, *gpa, /*writable=*/true));
  RecordAlloc(*gpa, process.pid(), vpn);
  return gpa;
}

std::optional<RmapEntry> GuestKernel::Rmap(PageNum gpa) const {
  const uint64_t* slot = RmapSlot(gpa);
  if (slot == nullptr || *slot == 0) {
    return std::nullopt;
  }
  return RmapEntry{static_cast<int>(*slot >> kRmapVpnBits),
                   *slot & ((uint64_t{1} << kRmapVpnBits) - 1)};
}

void GuestKernel::OnPageMoved(PageNum old_gpa, PageNum new_gpa) {
  const uint64_t* old_slot = RmapSlot(old_gpa);
  DEMETER_CHECK(old_slot != nullptr && *old_slot != 0) << "moved page has no rmap entry";
  const uint64_t packed = *old_slot;
  SetRmap(old_gpa, 0);
  SetRmap(new_gpa, packed);
  PushAllocated(new_gpa);
}

void GuestKernel::OnPagesSwapped(PageNum gpa_a, PageNum gpa_b) {
  const uint64_t* slot_a = RmapSlot(gpa_a);
  const uint64_t* slot_b = RmapSlot(gpa_b);
  DEMETER_CHECK(slot_a != nullptr && *slot_a != 0 && slot_b != nullptr && *slot_b != 0)
      << "swapping unmapped gPAs";
  const uint64_t packed_a = *slot_a;
  SetRmap(gpa_a, *slot_b);
  SetRmap(gpa_b, packed_a);
}

std::optional<PageNum> GuestKernel::PickVictim(int node_id) {
  auto& fifo = alloc_fifo_[static_cast<size_t>(node_id)];
  const std::vector<uint64_t>& slots = rmap_[static_cast<size_t>(node_id)];
  while (!fifo.empty()) {
    const uint32_t offset = fifo.front();
    fifo.pop_front();
    // Lazily skip pages that were freed or migrated away since enqueue.
    if (offset < slots.size() && slots[offset] != 0) {
      // Re-enqueue at the back so repeated picks cycle through the node.
      fifo.push_back(offset);
      return node(node_id).gpa_base() + offset;
    }
  }
  return std::nullopt;
}

void GuestKernel::ReleaseStorage() {
  DEMETER_CHECK_EQ(mapped_pages_, 0u) << "releasing a guest kernel that still maps pages";
  for (std::vector<uint64_t>& slots : rmap_) {
    std::vector<uint64_t>().swap(slots);
  }
  for (std::deque<uint32_t>& fifo : alloc_fifo_) {
    std::deque<uint32_t>().swap(fifo);
  }
  for (const std::unique_ptr<GuestProcess>& process : processes_) {
    process->gpt().ReleaseStorage();
  }
}

double GuestKernel::OnContextSwitch(int vcpu, Nanos now) {
  double cost = 0.0;
  for (const CtxHook& hook : ctx_hooks_) {
    cost += hook(vcpu, now);
  }
  return cost;
}

}  // namespace demeter
