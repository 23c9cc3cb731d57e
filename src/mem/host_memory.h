// Host tiered physical memory: per-tier frame allocators plus a contents
// token per frame.
//
// Frames are identified by a global FrameId; each tier owns a contiguous
// FrameId range so TierOf() is a range lookup. The contents token is a
// 64-bit value logically representing the data stored in the frame — page
// migration must preserve tokens, which the test suite verifies end to end.
//
// Bookkeeping scales with the frames a run touches, not with capacity. Each
// tier's free list is LIFO: a bump index marks the never-used frames, which
// sit at its bottom lowest first, and a stack of freed frames sits on top.
// A frame's state and token are stored only once it has been handed out, so
// a frame above every frame handed out so far is free with token 0.

#ifndef DEMETER_SRC_MEM_HOST_MEMORY_H_
#define DEMETER_SRC_MEM_HOST_MEMORY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/base/logging.h"
#include "src/base/units.h"
#include "src/mem/tier.h"

namespace demeter {

using FrameId = uint64_t;
inline constexpr FrameId kInvalidFrame = ~static_cast<FrameId>(0);
// Every frame id fits in 32 bits (the TLB stores them that narrow); a host
// with more frames is refused at construction.
inline constexpr uint64_t kMaxFrames = uint64_t{1} << 32;

// Index of a tier within a HostMemory. By convention, tier 0 is FMEM
// (fast) and tier 1 is SMEM (slow); three-tier setups add tier 2, the far
// swap tier (compressed RAM / SSD, see src/swap). Two-tier hosts never see
// kSwapTier: every swap path is gated on num_tiers() > kSwapTier.
using TierIndex = int;
inline constexpr TierIndex kFmemTier = 0;
inline constexpr TierIndex kSmemTier = 1;
inline constexpr TierIndex kSwapTier = 2;

class HostMemory {
 public:
  explicit HostMemory(std::vector<TierSpec> tiers);

  int num_tiers() const { return static_cast<int>(tiers_.size()); }
  MemoryTier& tier(TierIndex t) { return tiers_[static_cast<size_t>(t)]; }
  const MemoryTier& tier(TierIndex t) const { return tiers_[static_cast<size_t>(t)]; }

  // Allocates one frame from tier `t`; nullopt when the tier is exhausted.
  std::optional<FrameId> Allocate(TierIndex t);
  void Free(FrameId frame);

  // Inline: called once per memory access on the hot path; with 2-3 tiers
  // the range scan is a couple of compares.
  TierIndex TierOf(FrameId frame) const {
    DEMETER_CHECK_LT(frame, total_frames_);
    for (size_t i = 0; i < states_.size(); ++i) {
      const TierState& state = states_[i];
      if (frame >= state.base && frame < state.base + state.num_frames) {
        return static_cast<TierIndex>(i);
      }
    }
    DEMETER_CHECK(false) << "frame " << frame << " not in any tier";
    return -1;
  }

  // True when `frame` is currently handed out by its tier's allocator.
  bool IsAllocated(FrameId frame) const;

  // ---- hwpoison (uncorrectable memory errors) -----------------------------
  // Marks an allocated frame as poisoned: it leaves the allocator for good
  // (never re-enters the free list) and its token is destroyed. The caller
  // (hypervisor MCE handler) is responsible for unmapping it first.
  void Poison(FrameId frame);
  bool IsPoisoned(FrameId frame) const;
  uint64_t PoisonedPages(TierIndex t) const;

  // ---- capacity hot-shrink (co-tenant pressure) ---------------------------
  // Carves up to `max_frames` free frames out of tier `t` (they become
  // unallocatable until restored); returns the number carved. RestoreCarved
  // returns every carved frame, reproducing the exact pre-carve free-list
  // order so a shrink window that never forces an eviction is invisible to
  // later allocation patterns.
  uint64_t CarveFree(TierIndex t, uint64_t max_frames);
  void RestoreCarved(TierIndex t);
  uint64_t CarvedPages(TierIndex t) const;

  uint64_t CapacityPages(TierIndex t) const;
  uint64_t FreePages(TierIndex t) const;
  // Frames currently handed out to mappings: capacity minus free minus
  // poisoned minus carved. The invariant checker asserts EPT-mapped counts
  // equal this, so offline frames must not be counted as "used".
  uint64_t UsedPages(TierIndex t) const;

  // Contents token of a frame (logical page data identity); 0 for a frame
  // that holds no data. Only an allocated frame can be written.
  uint64_t ReadToken(FrameId frame) const;
  void WriteToken(FrameId frame, uint64_t token);

  // Total frames across all tiers.
  uint64_t total_frames() const { return total_frames_; }

 private:
  enum class FrameState : uint8_t { kFree, kAllocated, kPoisoned };

  // Frames are named by their offset from `base` inside a tier.
  struct TierState {
    FrameId base = 0;
    uint64_t num_frames = 0;
    // The free list, top first: `freed` from its back, then the never-used
    // offsets fresh, fresh + 1, ..., num_frames - 1.
    std::vector<uint32_t> freed;
    uint64_t fresh = 0;
    std::vector<uint32_t> carved;  // Stack of offsets removed by CarveFree.
    // Per offset, up to the highest one handed out; absent means free with
    // token 0.
    std::vector<FrameState> frame_state;
    std::vector<uint64_t> tokens;
    uint64_t poisoned_count = 0;

    FrameState StateAt(uint64_t offset) const {
      return offset < frame_state.size() ? frame_state[offset] : FrameState::kFree;
    }
  };

  // Takes the top of the free list; nullopt when it is empty.
  static std::optional<uint32_t> PopFree(TierState& state);
  // Puts `offset` on top of the free list.
  static void PushFree(TierState& state, uint32_t offset);

  TierState& TierStateOf(FrameId frame) { return states_[static_cast<size_t>(TierOf(frame))]; }
  const TierState& TierStateOf(FrameId frame) const {
    return states_[static_cast<size_t>(TierOf(frame))];
  }

  std::vector<MemoryTier> tiers_;
  std::vector<TierState> states_;
  uint64_t total_frames_ = 0;
};

}  // namespace demeter

#endif  // DEMETER_SRC_MEM_HOST_MEMORY_H_
