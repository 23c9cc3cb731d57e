// Bounded FIFO whose storage grows with what is queued.
//
// Demeter feeds PEBS samples from per-vCPU context-switch drains (and the
// rare PMI) into its classifier through this queue (§3.2.2). Producers and
// the consumer run on the owning host's thread, so the queue needs no
// synchronisation. Push never blocks: when `capacity` items are queued the
// item is dropped and counted, exactly as a fixed sample channel in a
// kernel would shed load. Storage is allocated on the first push and grows
// with the queue's depth, never up front: an idle queue costs nothing.

#ifndef DEMETER_SRC_GUEST_BOUNDED_QUEUE_H_
#define DEMETER_SRC_GUEST_BOUNDED_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/base/logging.h"

namespace demeter {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {
    DEMETER_CHECK_GT(capacity, 0u);
  }

  // Returns false (and counts a drop) when `capacity` items are queued.
  bool Push(const T& value) {
    if (items_.size() >= capacity_) {
      ++dropped_;
      return false;
    }
    items_.push_back(value);
    return true;
  }

  // Removes and returns every queued item, oldest first. The queue hands
  // its storage to the caller and starts over empty.
  std::vector<T> Drain() { return std::exchange(items_, {}); }

  size_t size() const { return items_.size(); }
  uint64_t dropped() const { return dropped_; }
  // Items the current storage can hold without growing (0 before the
  // first push and after a drain).
  size_t allocated() const { return items_.capacity(); }

 private:
  size_t capacity_;
  std::vector<T> items_;
  uint64_t dropped_ = 0;
};

}  // namespace demeter

#endif  // DEMETER_SRC_GUEST_BOUNDED_QUEUE_H_
