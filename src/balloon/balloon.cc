#include "src/balloon/balloon.h"

#include <algorithm>
#include <utility>

#include "src/base/logging.h"
#include "src/sim/cpu_account.h"

namespace demeter {

namespace {

constexpr int OtherNode(int node) { return node == 0 ? 1 : 0; }

}  // namespace

// ---- DemeterBalloon ---------------------------------------------------------

DemeterBalloon::DemeterBalloon(Vm* vm, BalloonCosts costs)
    : vm_(vm),
      costs_(costs),
      request_queue_(&vm->host().events(), costs.queue),
      completion_queue_(&vm->host().events(), costs.queue),
      stats_queue_(&vm->host().events(), costs.queue) {
  request_queue_.set_consumer(
      [this](BalloonRequest request, Nanos now) { HandleRequest(std::move(request), now); });
  completion_queue_.set_consumer([this](BalloonCompletion completion, Nanos now) {
    HandleCompletion(std::move(completion), now);
  });
  stats_queue_.set_consumer([this](GuestMemStats snapshot, Nanos now) {
    for (auto& cb : pending_stats_) {
      cb(snapshot, now);
    }
    pending_stats_.clear();
  });
  // Boot-time holdings: each node's span is 100% of VM memory, and whatever
  // is not presently usable sits inside the balloon — so the host can
  // deflate (grow the node) up to the span without ever having inflated.
  for (int n = 0; n < vm->kernel().num_nodes() && n < 2; ++n) {
    const NumaNode& node = vm->kernel().node(n);
    auto& held = held_pages_[static_cast<size_t>(n)];
    for (PageNum gpa = node.gpa_base() + node.present_pages(); gpa < node.gpa_end(); ++gpa) {
      held.push_back(gpa);
    }
  }
  fault_ = vm->host().fault_injector();
  armed_ = fault_ != nullptr && fault_->active();
  if (armed_ && fault_->plan().vq_capacity > 0) {
    request_queue_.set_capacity(fault_->plan().vq_capacity);
  }
}

void DemeterBalloon::RequestDelta(int node, int64_t delta_pages, Nanos now,
                                  CompletionCallback callback) {
  if (delta_pages == 0) {
    if (callback) {
      callback(BalloonCompletion{}, now);
    }
    return;
  }
  BalloonRequest request;
  request.request_id = next_request_id_++;
  request.node = node;
  request.delta_pages = delta_pages;
  if (armed_) {
    if (inflight_ >= costs_.resilience.max_inflight) {
      ++stats_.deferred;
      deferred_.emplace_back(request, std::move(callback));
      return;
    }
    StartRequest(request, std::move(callback), now);
    return;
  }
  ++stats_.requests;
  ++inflight_;
  if (callback) {
    pending_callbacks_.emplace_back(request.request_id, std::move(callback));
  }
  request_queue_.Push(request, now);
}

void DemeterBalloon::StartRequest(BalloonRequest request, CompletionCallback callback, Nanos now) {
  ++stats_.requests;
  ++inflight_;
  PendingRequest pending;
  pending.request = request;
  pending.callback = std::move(callback);
  pending_.push_back(std::move(pending));
  SendWire(request.request_id, now);
}

void DemeterBalloon::SendWire(uint64_t request_id, Nanos now) {
  for (PendingRequest& p : pending_) {
    if (p.request.request_id != request_id) {
      continue;
    }
    double ignored_cost = 0.0;
    if (!request_queue_.TryPush(p.request, now, &ignored_cost)) {
      // Ring full: the kick is refused and this attempt is lost on the
      // floor; the timeout below retransmits. Charged nowhere — the
      // doorbell write never left the core.
      fault_->Count(FaultSite::kVirtqueueFull, vm_->id());
    }
    // Exponential backoff: timeout * backoff^(attempts-1), computed by
    // repeated multiplication for cross-platform determinism.
    double delay = static_cast<double>(costs_.resilience.request_timeout_ns);
    for (int i = 1; i < p.attempts; ++i) {
      delay *= costs_.resilience.backoff;
    }
    p.timeout_event = vm_->host().events().Schedule(
        now + static_cast<Nanos>(delay),
        [this, request_id](Nanos fire) { OnRequestTimeout(request_id, fire); });
    return;
  }
}

void DemeterBalloon::OnRequestTimeout(uint64_t request_id, Nanos now) {
  auto it = pending_.begin();
  for (; it != pending_.end(); ++it) {
    if (it->request.request_id == request_id) {
      break;
    }
  }
  if (it == pending_.end()) {
    return;  // Completed between timer fire and delivery.
  }
  ++stats_.timeouts;
  if (it->attempts > costs_.resilience.max_retries) {
    // Give up: synthesize a timed-out completion so the policy layer can
    // observe the failure instead of waiting forever.
    ++stats_.abandoned;
    BalloonCompletion completion;
    completion.request_id = request_id;
    completion.node = it->request.node;
    completion.inflate = it->request.delta_pages > 0;
    completion.timed_out = true;
    auto callback = std::move(it->callback);
    pending_.erase(it);
    DEMETER_CHECK_GT(inflight_, 0u);
    --inflight_;
    if (callback) {
      callback(completion, now);
    }
    PumpDeferred(now);
    return;
  }
  ++it->attempts;
  ++stats_.retries;
  SendWire(request_id, now);
}

void DemeterBalloon::PumpDeferred(Nanos now) {
  while (!deferred_.empty() && inflight_ < costs_.resilience.max_inflight) {
    auto [request, callback] = std::move(deferred_.front());
    deferred_.pop_front();
    StartRequest(request, std::move(callback), now);
  }
}

void DemeterBalloon::RequestResizeTo(int node, uint64_t target_present_pages, Nanos now,
                                     CompletionCallback callback) {
  const uint64_t present = vm_->kernel().node(node).present_pages();
  const int64_t delta = static_cast<int64_t>(present) - static_cast<int64_t>(target_present_pages);
  RequestDelta(node, delta, now, std::move(callback));
}

bool DemeterBalloon::DemoteOnePage(int node, Nanos now) {
  GuestKernel& kernel = vm_->kernel();
  auto victim = kernel.PickVictim(node);
  if (!victim.has_value()) {
    return false;
  }
  const std::optional<RmapEntry> rmap = kernel.Rmap(*victim);
  DEMETER_CHECK(rmap.has_value());
  GuestProcess* proc = kernel.process(rmap->pid);
  DEMETER_CHECK(proc != nullptr);
  double cost = 0.0;
  if (!vm_->MovePage(*proc, rmap->vpn, OtherNode(node), now, &cost)) {
    return false;
  }
  vm_->mgmt_account().Charge(TmmStage::kOther, static_cast<Nanos>(cost));
  ++stats_.demotions_for_inflate;
  return true;
}

void DemeterBalloon::HandleRequest(BalloonRequest request, Nanos now) {
  if (vm_->departed()) {
    return;  // The guest is gone; late queue deliveries drop on the floor.
  }
  if (armed_) {
    // Delivery-side faults, in severity order. A crashed guest loses the
    // request outright; a stalled one services it when the window ends.
    if (fault_->InCrashWindow(now)) {
      fault_->Count(FaultSite::kGuestCrash, vm_->id());
      return;
    }
    if (fault_->ShouldInject(FaultSite::kBalloonDrop, vm_->id())) {
      return;
    }
    if (fault_->InStallWindow(now)) {
      fault_->Count(FaultSite::kGuestStall, vm_->id());
      vm_->host().events().Schedule(
          fault_->StallWindowEnd(now),
          [this, request](Nanos fire) mutable { ProcessRequest(std::move(request), fire); });
      return;
    }
    if (fault_->ShouldInject(FaultSite::kBalloonDelay, vm_->id())) {
      vm_->host().events().Schedule(
          now + fault_->plan().balloon_delay_ns,
          [this, request](Nanos fire) mutable { ProcessRequest(std::move(request), fire); });
      return;
    }
  }
  ProcessRequest(std::move(request), now);
}

void DemeterBalloon::ProcessRequest(BalloonRequest request, Nanos now) {
  if (vm_->departed()) {
    return;  // Stalled/delayed deliveries can outlive the guest.
  }
  if (armed_ && !processed_ids_.insert(request.request_id).second) {
    // A retransmit of a request this driver already executed (the original
    // was merely slow, not lost). Idempotence: drop it.
    ++stats_.duplicates_ignored;
    return;
  }
  // Guest driver context: dispatch the actual reservation/restoration to the
  // workqueue (modelled as an extra per-page delay before completion).
  GuestKernel& kernel = vm_->kernel();
  NumaNode& node = kernel.node(request.node);
  BalloonCompletion completion;
  completion.request_id = request.request_id;
  completion.node = request.node;

  if (request.delta_pages > 0) {
    // Inflate: reserve pages from exactly this node, demoting victims into
    // the other node when the free list runs short (tier-aware reclaim).
    completion.inflate = true;
    const uint64_t want = static_cast<uint64_t>(request.delta_pages);
    uint64_t got = node.BalloonTake(want, &completion.pages);
    while (got < want) {
      if (!DemoteOnePage(request.node, now)) {
        break;
      }
      got += node.BalloonTake(want - got, &completion.pages);
    }
    stats_.pages_short += want - got;
  } else {
    // Deflate: restore previously reserved pages to this node.
    completion.inflate = false;
    const uint64_t want = static_cast<uint64_t>(-request.delta_pages);
    auto& held = held_pages_[static_cast<size_t>(request.node)];
    const uint64_t give = std::min<uint64_t>(want, held.size());
    for (uint64_t i = 0; i < give; ++i) {
      completion.pages.push_back(held.back());
      held.pop_back();
    }
    node.BalloonReturn(completion.pages);
    stats_.pages_short += want - give;
  }
  if (completion.inflate) {
    auto& held = held_pages_[static_cast<size_t>(request.node)];
    held.insert(held.end(), completion.pages.begin(), completion.pages.end());
  }

  const double work =
      costs_.driver_work_per_page_ns * static_cast<double>(completion.pages.size());
  vm_->mgmt_account().Charge(TmmStage::kOther, static_cast<Nanos>(work));
  vm_->host().events().Schedule(now + static_cast<Nanos>(work),
                                [this, completion](Nanos fire) mutable {
                                  completion_queue_.Push(std::move(completion), fire);
                                });
}

void DemeterBalloon::ApplyCompletionPages(const BalloonCompletion& completion, Nanos now) {
  Tracer* tracer = vm_->host().tracer();
  if (tracer != nullptr && tracer->enabled()) {
    tracer->Instant("balloon", completion.inflate ? "inflate" : "deflate", now, vm_->id(), 0,
                    TraceArgs()
                        .Add("node", static_cast<uint64_t>(completion.node))
                        .Add("pages", static_cast<uint64_t>(completion.pages.size()))
                        .str());
  }
  if (completion.inflate) {
    // Release host backing of every reserved page; one batched invept.
    for (PageNum gpa : completion.pages) {
      vm_->host().UnbackGpa(*vm_, gpa, /*flush=*/false);
    }
    if (!completion.pages.empty()) {
      vm_->FullFlushAll();
    }
    stats_.pages_inflated += completion.pages.size();
  } else {
    // Deflated pages are backed lazily on next guest touch.
    stats_.pages_deflated += completion.pages.size();
  }
}

void DemeterBalloon::HandleCompletion(BalloonCompletion completion, Nanos now) {
  if (vm_->departed()) {
    return;  // ReclaimVm already released every frame this would touch.
  }
  if (armed_) {
    auto it = pending_.begin();
    for (; it != pending_.end(); ++it) {
      if (it->request.request_id == completion.request_id) {
        break;
      }
    }
    if (it == pending_.end()) {
      // The host already abandoned this request; the guest-side page
      // movement still happened, so apply the host-side effects to keep
      // frame accounting conserved, but fire no callback.
      ++stats_.stale_completions;
      ApplyCompletionPages(completion, now);
      return;
    }
    ++stats_.completions;
    vm_->host().events().Cancel(it->timeout_event);
    auto callback = std::move(it->callback);
    pending_.erase(it);
    DEMETER_CHECK_GT(inflight_, 0u);
    --inflight_;
    ApplyCompletionPages(completion, now);
    if (callback) {
      callback(completion, now);
    }
    PumpDeferred(now);
    return;
  }
  ++stats_.completions;
  DEMETER_CHECK_GT(inflight_, 0u);
  --inflight_;
  ApplyCompletionPages(completion, now);
  for (auto it = pending_callbacks_.begin(); it != pending_callbacks_.end(); ++it) {
    if (it->first == completion.request_id) {
      auto callback = std::move(it->second);
      pending_callbacks_.erase(it);
      callback(completion, now);
      break;
    }
  }
}

void DemeterBalloon::QueryStats(Nanos now, StatsCallback callback) {
  pending_stats_.push_back(std::move(callback));
  GuestMemStats snapshot;
  snapshot.timestamp = now;
  for (int n = 0; n < 2; ++n) {
    snapshot.node_present[n] = vm_->kernel().node(n).present_pages();
    snapshot.node_free[n] = vm_->kernel().node(n).free_pages();
  }
  snapshot.pages_promoted = vm_->stats().pages_promoted;
  snapshot.pages_demoted = vm_->stats().pages_demoted;
  snapshot.guest_faults = vm_->stats().guest_faults;
  snapshot.under_pressure = vm_->kernel().node(0).BelowLow() || vm_->kernel().node(1).BelowLow();
  stats_queue_.Push(snapshot, now);
}

// ---- VirtioBalloon ----------------------------------------------------------

VirtioBalloon::VirtioBalloon(Vm* vm, BalloonCosts costs)
    : vm_(vm),
      costs_(costs),
      request_queue_(&vm->host().events(), costs.queue),
      completion_queue_(&vm->host().events(), costs.queue) {
  request_queue_.set_consumer(
      [this](BalloonRequest request, Nanos now) { HandleRequest(std::move(request), now); });
  completion_queue_.set_consumer([this](BalloonCompletion completion, Nanos now) {
    HandleCompletion(std::move(completion), now);
  });
  fault_ = vm->host().fault_injector();
  armed_ = fault_ != nullptr && fault_->active();
  if (armed_ && fault_->plan().vq_capacity > 0) {
    request_queue_.set_capacity(fault_->plan().vq_capacity);
  }
}

void VirtioBalloon::RequestDelta(int64_t delta_pages, Nanos now) {
  if (delta_pages == 0) {
    return;
  }
  BalloonRequest request;
  request.request_id = next_request_id_++;
  request.delta_pages = delta_pages;
  ++stats_.requests;
  if (armed_) {
    double ignored_cost = 0.0;
    if (!request_queue_.TryPush(request, now, &ignored_cost)) {
      // No retry machinery in the classic balloon: a refused kick is a lost
      // request, which is exactly the wedging Demeter's resilience avoids.
      fault_->Count(FaultSite::kVirtqueueFull, vm_->id());
    }
    return;
  }
  request_queue_.Push(request, now);
}

void VirtioBalloon::HandleRequest(BalloonRequest request, Nanos now) {
  if (vm_->departed()) {
    return;
  }
  if (armed_) {
    if (fault_->InCrashWindow(now)) {
      fault_->Count(FaultSite::kGuestCrash, vm_->id());
      return;
    }
    if (fault_->ShouldInject(FaultSite::kBalloonDrop, vm_->id())) {
      return;
    }
    if (fault_->InStallWindow(now)) {
      fault_->Count(FaultSite::kGuestStall, vm_->id());
      vm_->host().events().Schedule(
          fault_->StallWindowEnd(now),
          [this, request](Nanos fire) mutable { ProcessRequest(std::move(request), fire); });
      return;
    }
    if (fault_->ShouldInject(FaultSite::kBalloonDelay, vm_->id())) {
      vm_->host().events().Schedule(
          now + fault_->plan().balloon_delay_ns,
          [this, request](Nanos fire) mutable { ProcessRequest(std::move(request), fire); });
      return;
    }
  }
  ProcessRequest(std::move(request), now);
}

void VirtioBalloon::ProcessRequest(BalloonRequest request, Nanos now) {
  if (vm_->departed()) {
    return;
  }
  if (armed_ && !processed_ids_.insert(request.request_id).second) {
    ++stats_.duplicates_ignored;
    return;
  }
  GuestKernel& kernel = vm_->kernel();
  BalloonCompletion completion;
  completion.request_id = request.request_id;

  if (request.delta_pages > 0) {
    // Tier-unaware inflation: balloon pages come from alloc_page(), whose
    // local-first policy drains the fast node down to its low watermark
    // before spilling to the slow node — regardless of which tier the host
    // actually wanted to reclaim. This is the FMEM-eating behaviour §5.2.1
    // measures.
    completion.inflate = true;
    uint64_t want = static_cast<uint64_t>(request.delta_pages);
    NumaNode& fast = kernel.node(0);
    const uint64_t reserve = fast.watermark_low();  // Snapshot before draining.
    if (fast.free_pages() > reserve) {
      const uint64_t budget = std::min<uint64_t>(want, fast.free_pages() - reserve);
      want -= fast.BalloonTake(budget, &completion.pages);
    }
    if (want > 0) {
      want -= kernel.node(1).BalloonTake(want, &completion.pages);
    }
    if (want > 0) {
      // Both preferred sources dry: dig below the fast node's watermark.
      want -= fast.BalloonTake(want, &completion.pages);
    }
    stats_.pages_short += want;
    held_.insert(held_.end(), completion.pages.begin(), completion.pages.end());
  } else {
    completion.inflate = false;
    uint64_t want = static_cast<uint64_t>(-request.delta_pages);
    const uint64_t give = std::min<uint64_t>(want, held_.size());
    for (uint64_t i = 0; i < give; ++i) {
      completion.pages.push_back(held_.back());
      held_.pop_back();
    }
    // Return each page to its owning node.
    for (PageNum gpa : completion.pages) {
      kernel.node(kernel.NodeOfGpa(gpa)).BalloonReturn({gpa});
    }
    stats_.pages_short += want - give;
  }

  const double work =
      costs_.driver_work_per_page_ns * static_cast<double>(completion.pages.size());
  vm_->mgmt_account().Charge(TmmStage::kOther, static_cast<Nanos>(work));
  vm_->host().events().Schedule(now + static_cast<Nanos>(work),
                                [this, completion](Nanos fire) mutable {
                                  completion_queue_.Push(std::move(completion), fire);
                                });
}

void VirtioBalloon::HandleCompletion(BalloonCompletion completion, Nanos now) {
  (void)now;
  if (vm_->departed()) {
    return;
  }
  ++stats_.completions;
  if (completion.inflate) {
    for (PageNum gpa : completion.pages) {
      vm_->host().UnbackGpa(*vm_, gpa, /*flush=*/false);
    }
    if (!completion.pages.empty()) {
      vm_->FullFlushAll();
    }
    stats_.pages_inflated += completion.pages.size();
  } else {
    stats_.pages_deflated += completion.pages.size();
  }
}

// ---- HotplugProvisioner -------------------------------------------------------

HotplugProvisioner::HotplugProvisioner(Vm* vm, uint64_t block_bytes)
    : vm_(vm), block_pages_(block_bytes / kPageSize) {
  DEMETER_CHECK_GT(block_pages_, 0u);
}

uint64_t HotplugProvisioner::ResizeTo(int node_id, uint64_t target_present_pages, Nanos now) {
  (void)now;
  GuestKernel& kernel = vm_->kernel();
  NumaNode& node = kernel.node(node_id);
  auto& blocks = unplugged_[static_cast<size_t>(node_id)];
  if (vm_->departed()) {
    return node.present_pages();  // The guest is gone; nothing to resize.
  }

  // Grow smaller than one whole block: the device cannot split a block, so
  // the request is rejected outright (no silent rounding, no state change).
  if (target_present_pages > node.present_pages() &&
      target_present_pages < node.present_pages() + block_pages_) {
    return node.present_pages();
  }

  // Shrink: unplug whole blocks while doing so does not undershoot target.
  while (node.present_pages() >= target_present_pages + block_pages_) {
    std::vector<PageNum> taken;
    if (node.BalloonTake(block_pages_, &taken) < block_pages_) {
      // Cannot assemble a whole free block: put partial back and stop.
      node.BalloonReturn(taken);
      break;
    }
    for (PageNum gpa : taken) {
      vm_->host().UnbackGpa(*vm_, gpa, /*flush=*/false);
    }
    vm_->FullFlushAll();
    blocks.push_back(std::move(taken));
  }
  // Grow: replug whole blocks, most recently unplugged first (LIFO), each
  // to the exact node it was carved from, while staying at or below target.
  while (!blocks.empty() && node.present_pages() + block_pages_ <= target_present_pages) {
    const std::vector<PageNum>& block = blocks.back();
    DEMETER_CHECK(!block.empty() && kernel.NodeOfGpa(block.front()) == node_id)
        << "replugging a block carved from another node";
    node.BalloonReturn(block);
    blocks.pop_back();
  }
  return node.present_pages();
}

}  // namespace demeter
