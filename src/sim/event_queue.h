// Deterministic discrete-event queue over virtual time.
//
// Events scheduled at the same timestamp fire in scheduling order (a
// monotonically increasing sequence number breaks ties), so simulation runs
// are exactly reproducible.
//
// Cancellation is exact: ids are unique for the queue's lifetime (a monotone
// counter doubles as a generation id), and the queue tracks the live id set
// in a hash set. Cancel() on an id that already fired, was already
// cancelled, or never existed returns false and changes nothing — the
// earlier lazy scheme returned true for fired ids, decremented the live
// count for events no longer in the heap, and left the tombstone in the
// cancelled list forever (every later Cancel paid a linear scan over it).

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

  // Runs all events with time <= until, in (time, seq) order. Events may
  // schedule further events; those also run if due. Returns the number of
  // callbacks fired; cancelled entries dropped on the way do not count.
  size_t RunUntil(Nanos until);

  // Time of the earliest pending event, or kNoEvent when empty. Cancelled
  // events may still occupy the heap top, so this is a lower bound — safe
  // for lock-step advancement.
  static constexpr Nanos kNoEvent = ~static_cast<Nanos>(0);
  Nanos NextEventTime() const { return heap_.empty() ? kNoEvent : heap_.front().when; }

  bool empty() const { return live_.empty(); }
  size_t size() const { return live_.size(); }

 private:
  struct Event {
    Nanos when;
    uint64_t seq;
    uint64_t id;
    Callback cb;
  };
  // Min-heap order on (when, seq) for std::push_heap/std::pop_heap, which
  // want a max-heap comparator — hence the inversion.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  // Raw vectors + heap algorithms instead of std::priority_queue: top() is
  // const so popping an event used to copy its std::function (an allocation
  // per fired event on the hottest simulation loop); here the event is moved
  // out.
  std::vector<Event> heap_;
  std::unordered_set<uint64_t> live_;       // Scheduled, not fired/cancelled.
  std::unordered_set<uint64_t> cancelled_;  // Cancelled, still in the heap.
  uint64_t next_seq_ = 0;
  uint64_t next_id_ = 1;
};

}  // namespace demeter

#endif  // DEMETER_SRC_SIM_EVENT_QUEUE_H_
