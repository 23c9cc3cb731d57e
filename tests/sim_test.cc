#include <gtest/gtest.h>

#include <vector>

#include "src/sim/cpu_account.h"
#include "src/sim/event_queue.h"

namespace demeter {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(30, [&](Nanos) { order.push_back(3); });
  q.Schedule(10, [&](Nanos) { order.push_back(1); });
  q.Schedule(20, [&](Nanos) { order.push_back(2); });
  EXPECT_EQ(q.RunUntil(100), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeFiresInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(5, [&order, i](Nanos) { order.push_back(i); });
  }
  q.RunUntil(5);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueue, RunUntilIsInclusive) {
  EventQueue q;
  int fired = 0;
  q.Schedule(100, [&](Nanos) { ++fired; });
  q.RunUntil(99);
  EXPECT_EQ(fired, 0);
  q.RunUntil(100);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int count = 0;
  std::function<void(Nanos)> tick = [&](Nanos now) {
    ++count;
    if (count < 5) {
      q.Schedule(now + 10, tick);
    }
  };
  q.Schedule(0, tick);
  q.RunUntil(1000);
  EXPECT_EQ(count, 5);
}

TEST(EventQueue, ChainedEventDueLaterDoesNotFire) {
  EventQueue q;
  int count = 0;
  q.Schedule(10, [&](Nanos now) {
    ++count;
    q.Schedule(now + 100, [&](Nanos) { ++count; });
  });
  q.RunUntil(50);
  EXPECT_EQ(count, 1);
  q.RunUntil(110);
  EXPECT_EQ(count, 2);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  const uint64_t id = q.Schedule(10, [&](Nanos) { ++fired; });
  EXPECT_TRUE(q.Cancel(id));
  // A dropped tombstone is not a fire: callers treat a zero return as "no
  // callback ran" and skip work keyed on event side effects.
  EXPECT_EQ(q.RunUntil(100), 0u);
  EXPECT_EQ(fired, 0);
}

TEST(EventQueue, CancelInvalidIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(0));
  EXPECT_FALSE(q.Cancel(12345));
}

// Regression: Cancel on an id that had ALREADY FIRED used to return true,
// decrement the live count below reality (wedging empty()/size() and any
// loop keyed on them), and park the id in the cancelled list forever. It
// must be a reported no-op.
TEST(EventQueue, CancelAfterFireIsRejectedNoOp) {
  EventQueue q;
  int fired = 0;
  const uint64_t a = q.Schedule(10, [&](Nanos) { ++fired; });
  q.Schedule(20, [&](Nanos) { ++fired; });
  EXPECT_EQ(q.RunUntil(10), 1u);
  EXPECT_FALSE(q.Cancel(a)) << "id already fired";
  EXPECT_EQ(q.size(), 1u) << "live count corrupted by cancel-after-fire";
  EXPECT_EQ(q.RunUntil(100), 1u) << "surviving event must still fire";
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(q.empty());
}

// Regression: double-cancel used to double-decrement the live count (only a
// saturating guard kept it from wrapping, masking the loss of real events).
TEST(EventQueue, DoubleCancelIsRejected) {
  EventQueue q;
  const uint64_t a = q.Schedule(10, [](Nanos) {});
  q.Schedule(20, [](Nanos) {});
  EXPECT_TRUE(q.Cancel(a));
  EXPECT_FALSE(q.Cancel(a));
  EXPECT_FALSE(q.Cancel(a));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.RunUntil(100), 1u);
}

TEST(EventQueue, CancelledIdsDoNotAccumulate) {
  EventQueue q;
  // Fire-then-cancel churn: every tombstone must be reclaimed at pop time,
  // and stale ids must never block or break later operations.
  for (int round = 0; round < 100; ++round) {
    const uint64_t id = q.Schedule(static_cast<Nanos>(round), [](Nanos) {});
    if (round % 2 == 0) {
      EXPECT_TRUE(q.Cancel(id));
    }
    q.RunUntil(static_cast<Nanos>(round));
    EXPECT_FALSE(q.Cancel(id)) << "cancelled-or-fired id accepted again";
    EXPECT_TRUE(q.empty());
  }
}

// The hot loop pops events by move; a callback whose captures are expensive
// to copy must not be copied between Schedule and the firing call.
TEST(EventQueue, CallbacksAreNotCopiedOnFire) {
  struct CopyCounter {
    int* copies;
    explicit CopyCounter(int* c) : copies(c) {}
    CopyCounter(const CopyCounter& o) : copies(o.copies) { ++*copies; }
    CopyCounter(CopyCounter&&) = default;
  };
  int copies = 0;
  int fired = 0;
  EventQueue q;
  q.Schedule(1, [counter = CopyCounter(&copies), &fired](Nanos) { ++fired; });
  // One copy is allowed when the lambda is wrapped into std::function at the
  // Schedule call boundary; none may happen afterwards.
  const int copies_after_schedule = copies;
  q.RunUntil(10);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(copies, copies_after_schedule) << "firing path copied the callback";
}

TEST(EventQueue, NextEventTime) {
  EventQueue q;
  EXPECT_EQ(q.NextEventTime(), EventQueue::kNoEvent);
  q.Schedule(77, [](Nanos) {});
  EXPECT_EQ(q.NextEventTime(), 77u);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  const uint64_t a = q.Schedule(1, [](Nanos) {});
  q.Schedule(2, [](Nanos) {});
  EXPECT_EQ(q.size(), 2u);
  q.Cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.RunUntil(10);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CallbackReceivesScheduledTime) {
  EventQueue q;
  Nanos seen = 0;
  q.Schedule(42, [&](Nanos now) { seen = now; });
  q.RunUntil(100);
  EXPECT_EQ(seen, 42u);
}

TEST(CpuAccount, ChargesPerStage) {
  CpuAccount acc;
  acc.Charge(TmmStage::kTracking, 100);
  acc.Charge(TmmStage::kTracking, 50);
  acc.Charge(TmmStage::kMigration, 25);
  EXPECT_EQ(acc.ForStage(TmmStage::kTracking), 150u);
  EXPECT_EQ(acc.ForStage(TmmStage::kMigration), 25u);
  EXPECT_EQ(acc.ForStage(TmmStage::kClassification), 0u);
  EXPECT_EQ(acc.Total(), 175u);
}

TEST(CpuAccount, CoresOver) {
  CpuAccount acc;
  acc.Charge(TmmStage::kOther, 500);
  EXPECT_DOUBLE_EQ(acc.CoresOver(1000), 0.5);
  EXPECT_DOUBLE_EQ(acc.CoresOver(0), 0.0);
}

TEST(CpuAccount, MergeAndClear) {
  CpuAccount a;
  CpuAccount b;
  a.Charge(TmmStage::kPmi, 10);
  b.Charge(TmmStage::kPmi, 20);
  b.Charge(TmmStage::kClassification, 5);
  a.Merge(b);
  EXPECT_EQ(a.ForStage(TmmStage::kPmi), 30u);
  EXPECT_EQ(a.ForStage(TmmStage::kClassification), 5u);
  a.Clear();
  EXPECT_EQ(a.Total(), 0u);
}

TEST(CpuAccount, StageNames) {
  EXPECT_STREQ(TmmStageName(TmmStage::kTracking), "tracking");
  EXPECT_STREQ(TmmStageName(TmmStage::kClassification), "classification");
  EXPECT_STREQ(TmmStageName(TmmStage::kMigration), "migration");
  EXPECT_STREQ(TmmStageName(TmmStage::kPmi), "pmi");
  EXPECT_STREQ(TmmStageName(TmmStage::kOther), "other");
}

}  // namespace
}  // namespace demeter
