#include "src/mem/host_memory.h"

#include "src/base/logging.h"

namespace demeter {

HostMemory::HostMemory(std::vector<TierSpec> tiers) {
  DEMETER_CHECK(!tiers.empty());
  uint64_t total = 0;
  for (const TierSpec& spec : tiers) {
    total += spec.capacity_pages();
  }
  DEMETER_CHECK_LE(total, kMaxFrames) << "host has more frames than a 32-bit frame id can name";
  FrameId base = 0;
  for (const TierSpec& spec : tiers) {
    tiers_.emplace_back(spec);
    TierState state;
    state.base = base;
    state.num_frames = spec.capacity_pages();
    base += state.num_frames;
    states_.push_back(std::move(state));
  }
  total_frames_ = base;
}

std::optional<uint32_t> HostMemory::PopFree(TierState& state) {
  if (!state.freed.empty()) {
    const uint32_t offset = state.freed.back();
    state.freed.pop_back();
    return offset;
  }
  if (state.fresh < state.num_frames) {
    return static_cast<uint32_t>(state.fresh++);
  }
  return std::nullopt;
}

void HostMemory::PushFree(TierState& state, uint32_t offset) {
  // A frame returned right on top of the never-used run rejoins it: the
  // list reads the same either way.
  if (state.freed.empty() && offset + uint64_t{1} == state.fresh) {
    --state.fresh;
  } else {
    state.freed.push_back(offset);
  }
}

std::optional<FrameId> HostMemory::Allocate(TierIndex t) {
  TierState& state = states_[static_cast<size_t>(t)];
  const std::optional<uint32_t> offset = PopFree(state);
  if (!offset.has_value()) {
    return std::nullopt;
  }
  if (*offset >= state.frame_state.size()) {
    state.frame_state.resize(*offset + size_t{1}, FrameState::kFree);
    state.tokens.resize(*offset + size_t{1}, 0);
  }
  state.frame_state[*offset] = FrameState::kAllocated;
  return state.base + *offset;
}

void HostMemory::Free(FrameId frame) {
  TierState& state = TierStateOf(frame);
  const uint64_t offset = frame - state.base;
  DEMETER_CHECK(state.StateAt(offset) != FrameState::kPoisoned)
      << "free of poisoned frame " << frame;
  DEMETER_CHECK(state.StateAt(offset) == FrameState::kAllocated)
      << "double free of frame " << frame;
  state.frame_state[offset] = FrameState::kFree;
  state.tokens[offset] = 0;
  PushFree(state, static_cast<uint32_t>(offset));
}

void HostMemory::Poison(FrameId frame) {
  TierState& state = TierStateOf(frame);
  const uint64_t offset = frame - state.base;
  DEMETER_CHECK(state.StateAt(offset) == FrameState::kAllocated)
      << "poison of unallocated frame " << frame;
  state.frame_state[offset] = FrameState::kPoisoned;
  ++state.poisoned_count;
  state.tokens[offset] = 0;
}

bool HostMemory::IsPoisoned(FrameId frame) const {
  const TierState& state = TierStateOf(frame);
  return state.StateAt(frame - state.base) == FrameState::kPoisoned;
}

uint64_t HostMemory::PoisonedPages(TierIndex t) const {
  return states_[static_cast<size_t>(t)].poisoned_count;
}

uint64_t HostMemory::CarveFree(TierIndex t, uint64_t max_frames) {
  TierState& state = states_[static_cast<size_t>(t)];
  uint64_t carved = 0;
  while (carved < max_frames) {
    const std::optional<uint32_t> offset = PopFree(state);
    if (!offset.has_value()) {
      break;
    }
    state.carved.push_back(*offset);
    ++carved;
  }
  return carved;
}

void HostMemory::RestoreCarved(TierIndex t) {
  TierState& state = states_[static_cast<size_t>(t)];
  // Push back in reverse carve order so the free list ends up exactly as it
  // was before the carve (the last frame carved returns to the top).
  while (!state.carved.empty()) {
    PushFree(state, state.carved.back());
    state.carved.pop_back();
  }
}

uint64_t HostMemory::CarvedPages(TierIndex t) const {
  return states_[static_cast<size_t>(t)].carved.size();
}

bool HostMemory::IsAllocated(FrameId frame) const {
  const TierState& state = TierStateOf(frame);
  return state.StateAt(frame - state.base) == FrameState::kAllocated;
}

uint64_t HostMemory::CapacityPages(TierIndex t) const {
  return states_[static_cast<size_t>(t)].num_frames;
}

uint64_t HostMemory::FreePages(TierIndex t) const {
  const TierState& state = states_[static_cast<size_t>(t)];
  return state.freed.size() + (state.num_frames - state.fresh);
}

uint64_t HostMemory::UsedPages(TierIndex t) const {
  return CapacityPages(t) - FreePages(t) - PoisonedPages(t) - CarvedPages(t);
}

uint64_t HostMemory::ReadToken(FrameId frame) const {
  const TierState& state = TierStateOf(frame);
  const uint64_t offset = frame - state.base;
  return offset < state.tokens.size() ? state.tokens[offset] : 0;
}

void HostMemory::WriteToken(FrameId frame, uint64_t token) {
  TierState& state = TierStateOf(frame);
  const uint64_t offset = frame - state.base;
  DEMETER_CHECK(state.StateAt(offset) == FrameState::kAllocated)
      << "token write to unallocated frame " << frame;
  state.tokens[offset] = token;
}

}  // namespace demeter
