// Deterministic discrete-event queue over virtual time.
//
// Events scheduled at the same timestamp fire in scheduling order: ids come
// from a monotone counter, so (when, id) is a total order and simulation
// runs are exactly reproducible.
//
// Cancellation is exact: ids are unique for the queue's lifetime, and a
// cancelled event stays in the heap as a tombstone until it reaches the top.
// Cancel() scans the heap for the id, so an id that already fired, was
// already cancelled, or never existed returns false and changes nothing.
// The scan is linear in the pending events; the only production caller is
// the balloon's armed request timeout.

#ifndef DEMETER_SRC_SIM_EVENT_QUEUE_H_
#define DEMETER_SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "src/base/units.h"

namespace demeter {

class EventQueue {
 public:
  using Callback = std::function<void(Nanos now)>;

  // Schedules `cb` to run at virtual time `when`. Returns an id that can be
  // used to cancel the event before it fires.
  uint64_t Schedule(Nanos when, Callback cb);

  // Cancels a pending event. Returns false (and is a no-op) if the event
  // already fired, was already cancelled, or the id was never issued. The
  // entry stays in the heap and is dropped at pop time.
  bool Cancel(uint64_t id);

  // Runs all events with time <= until, in (time, id) order. Events may
  // schedule further events; those also run if due. Returns the number of
  // callbacks fired; cancelled entries dropped on the way do not count.
  size_t RunUntil(Nanos until);

  // Time of the earliest pending event, or kNoEvent when empty. Cancelled
  // events may still occupy the heap top, so this is a lower bound — safe
  // for lock-step advancement.
  static constexpr Nanos kNoEvent = ~static_cast<Nanos>(0);
  Nanos NextEventTime() const { return heap_.empty() ? kNoEvent : heap_.front().when; }

  // Pending events: heap entries that are not tombstones.
  size_t size() const { return heap_.size() - cancelled_.size(); }
  bool empty() const { return size() == 0; }

 private:
  struct Event {
    Nanos when;
    uint64_t id;
    Callback cb;
  };
  // Min-heap order on (when, id) for std::push_heap/std::pop_heap, which
  // want a max-heap comparator — hence the inversion.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.when != b.when ? a.when > b.when : a.id > b.id;
    }
  };

  // Raw vectors + heap algorithms instead of std::priority_queue: top() is
  // const so popping an event used to copy its std::function (an allocation
  // per fired event on the hottest simulation loop); here the event is moved
  // out.
  std::vector<Event> heap_;
  std::unordered_set<uint64_t> cancelled_;  // Tombstones still in the heap.
  uint64_t next_id_ = 1;
};

}  // namespace demeter

#endif  // DEMETER_SRC_SIM_EVENT_QUEUE_H_
