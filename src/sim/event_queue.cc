#include "src/sim/event_queue.h"

#include <algorithm>
#include <utility>

namespace demeter {

uint64_t EventQueue::Schedule(Nanos when, Callback cb) {
  const uint64_t id = next_id_++;
  heap_.push_back(Event{when, next_seq_++, id, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  live_.insert(id);
  return id;
}

bool EventQueue::Cancel(uint64_t id) {
  if (live_.erase(id) == 0) {
    return false;
  }
  // The heap entry stays put and is dropped at pop time; the hash set makes
  // that check O(1) and the tombstone is erased exactly once.
  cancelled_.insert(id);
  return true;
}

size_t EventQueue::RunUntil(Nanos until) {
  size_t fired = 0;
  while (!heap_.empty() && heap_.front().when <= until) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    if (cancelled_.erase(ev.id) > 0) {
      continue;
    }
    live_.erase(ev.id);
    ++fired;
    ev.cb(ev.when);
  }
  return fired;
}

}  // namespace demeter
