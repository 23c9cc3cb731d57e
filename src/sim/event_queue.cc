#include "src/sim/event_queue.h"

#include <algorithm>
#include <utility>

namespace demeter {

uint64_t EventQueue::Schedule(Nanos when, Callback cb) {
  const uint64_t id = next_id_++;
  heap_.push_back(Event{when, id, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return id;
}

bool EventQueue::Cancel(uint64_t id) {
  const bool pending = std::any_of(heap_.begin(), heap_.end(),
                                   [id](const Event& ev) { return ev.id == id; });
  // The heap entry stays put and is dropped at pop time, which erases the
  // tombstone exactly once.
  return pending && cancelled_.insert(id).second;
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
    ++fired;
    ev.cb(ev.when);
  }
  return fired;
}

}  // namespace demeter
