#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cmath>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/base/histogram.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/base/thread_pool.h"
#include "src/base/units.h"

namespace demeter {
namespace {

TEST(Units, PageMath) {
  EXPECT_EQ(PagesForBytes(0), 0u);
  EXPECT_EQ(PagesForBytes(1), 1u);
  EXPECT_EQ(PagesForBytes(kPageSize), 1u);
  EXPECT_EQ(PagesForBytes(kPageSize + 1), 2u);
  EXPECT_EQ(PageFloor(kPageSize + 123), kPageSize);
  EXPECT_EQ(PageCeil(kPageSize + 1), 2 * kPageSize);
  EXPECT_EQ(PageCeil(kPageSize), kPageSize);
  EXPECT_EQ(PageOf(2 * kPageSize + 5), 2u);
  EXPECT_EQ(AddrOfPage(3), 3 * kPageSize);
}

TEST(Units, HugePageConstants) {
  EXPECT_EQ(kHugePageSize, 2 * kMiB);
  EXPECT_EQ(kPagesPerHugePage, 512u);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 10ULL, 4093ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(Rng, NextBelowCoversRangeRoughlyUniformly) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.NextBelow(10)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 10, kDraws / 100);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, ZipfInBounds) {
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(rng.NextZipf(1000, 0.99), 1000u);
  }
  EXPECT_EQ(rng.NextZipf(1, 0.99), 0u);
}

TEST(Rng, ZipfIsSkewedTowardLowRanks) {
  Rng rng(5);
  const int kDraws = 50000;
  int in_top_decile = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.NextZipf(1000, 0.99) < 100) {
      ++in_top_decile;
    }
  }
  // Zipf(0.99): the top 10% of ranks should absorb well over half the draws.
  EXPECT_GT(in_top_decile, kDraws / 2);
}

// ------------------------------------------------------- Zipf guide table

// Rng::NextZipf's rejection-inversion loop as it was before the guide
// table, written out from scratch and fed by `rng`'s NextDouble().
class LoopZipf {
 public:
  LoopZipf(uint64_t n, double theta) : n_(n) {
    q_ = theta;
    if (q_ == 1.0) {
      q_ = 1.0 + 1e-9;
    }
    h_x1_ = H(1.5) - 1.0;
    h_n_ = H(static_cast<double>(n) + 0.5);
    s_ = 2.0 - HInv(H(2.5) - std::pow(2.0, -q_));
  }

  uint64_t Draw(Rng& rng) const {
    for (;;) {
      const double u = h_n_ + rng.NextDouble() * (h_x1_ - h_n_);
      const double x = HInv(u);
      uint64_t k = static_cast<uint64_t>(x + 0.5);
      if (k < 1) {
        k = 1;
      } else if (k > n_) {
        k = n_;
      }
      const double kd = static_cast<double>(k);
      if (kd - x <= s_ || u >= H(kd + 0.5) - std::pow(kd, -q_)) {
        return k - 1;
      }
    }
  }

 private:
  double H(double x) const { return std::pow(x, 1.0 - q_) * (1.0 / (1.0 - q_)); }
  double HInv(double x) const { return std::pow((1.0 - q_) * x, 1.0 / (1.0 - q_)); }

  uint64_t n_;
  double q_;
  double h_x1_;
  double h_n_;
  double s_;
};

struct ZipfPair {
  uint64_t n;
  double theta;
};

// Every pair the tree draws with a table, plus the edges of the table's
// range: silo's index and record pairs at kv-zipf's 24 MiB and fleet-ha's
// 12 MiB footprints, theta 1 (nudged q), and the smallest and largest n.
constexpr ZipfPair kTablePairs[] = {
    {24576, 0.6}, {23040, 0.9}, {12288, 0.6}, {11520, 0.9}, {1000, 0.99},
    {1000, 1.0},  {2, 0.6},     {3, 0.9},     {kZipfTableMaxN, 0.99},
};

TEST(ZipfTable, FilledCellsMatchTheLoopAtBothEdges) {
  for (const ZipfPair& pair : kTablePairs) {
    SCOPED_TRACE(testing::Message() << "n=" << pair.n << " theta=" << pair.theta);
    const ZipfSetup setup(pair.n, pair.theta);
    const ZipfTable* table = ZipfTableFor(setup);
    ASSERT_NE(table, nullptr);
    uint64_t filled = 0;
    uint64_t mismatches = 0;
    for (uint64_t cell = 0; cell < kZipfCells; ++cell) {
      const uint8_t entry = table->cells[cell];
      if (entry == kZipfCellMixed) {
        continue;
      }
      ++filled;
      for (const uint64_t edge : {cell, cell + 1}) {
        const uint64_t trial = ZipfTrial(setup, ZipfInvert(setup, edge << kZipfCellShift));
        const bool match = entry == kZipfCellReject ? (trial & kZipfRejected) != 0
                                                    : trial == table->Rank(cell) + 1;
        if (!match && mismatches++ == 0) {
          ADD_FAILURE() << "cell " << cell << " holds " << int{entry} << ", edge " << edge
                        << " gives " << trial;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(filled, 0u);
  }
}

TEST(ZipfTable, NoTableAboveMaxN) {
  EXPECT_EQ(ZipfTableFor(ZipfSetup(kZipfTableMaxN + 1, 0.99)), nullptr);
}

// Compares `draws` ranks of `rng` at `pair` with the loop fed by `twin`.
void ExpectSameZipfStream(Rng& rng, Rng& twin, const ZipfPair& pair, uint64_t draws) {
  const LoopZipf loop(pair.n, pair.theta);
  for (uint64_t d = 0; d < draws; ++d) {
    const uint64_t rank = rng.NextZipf(pair.n, pair.theta);
    const uint64_t want = loop.Draw(twin);
    if (rank != want) {
      ADD_FAILURE() << "n=" << pair.n << " theta=" << pair.theta << " draw " << d << ": rank "
                    << rank << ", the loop gives " << want;
      return;
    }
  }
}

TEST(ZipfTable, NextZipfMatchesTheLoop) {
  // 250k draws per pair, 2.25M per seed.
  for (const uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    Rng twin(seed);
    for (const ZipfPair& pair : kTablePairs) {
      ExpectSameZipfStream(rng, twin, pair, 250000);
    }
    EXPECT_EQ(rng.Next(), twin.Next());
  }
}

TEST(ZipfTable, EvictedSlotRefillsWithTheSameStream) {
  // Four pairs fill the four slots, each with its table; the fifth evicts
  // the first, which then refills (and evicts the second).
  Rng rng(7);
  Rng twin(7);
  for (int p = 0; p < 5; ++p) {
    ExpectSameZipfStream(rng, twin, kTablePairs[p], 5000);
  }
  ExpectSameZipfStream(rng, twin, kTablePairs[0], 5000);
  ExpectSameZipfStream(rng, twin, kTablePairs[1], 5000);
  EXPECT_EQ(rng.Next(), twin.Next());
}

TEST(ZipfTable, ConcurrentFirstUseDrawsTheSingleThreadStream) {
  // A pair no other test draws, so its table is built here: four threads
  // draw it for the first time together and race to the registry.
  constexpr ZipfPair kPair{4321, 0.75};
  constexpr int kThreads = 4;
  constexpr uint64_t kDraws = 100000;
  std::vector<std::vector<uint64_t>> streams(kThreads);
  std::barrier sync(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      sync.arrive_and_wait();
      for (uint64_t d = 0; d < kDraws; ++d) {
        streams[t].push_back(rng.NextZipf(kPair.n, kPair.theta));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const LoopZipf loop(kPair.n, kPair.theta);
  for (int t = 0; t < kThreads; ++t) {
    Rng twin(100 + t);
    ASSERT_EQ(streams[t].size(), kDraws);
    for (size_t d = 0; d < streams[t].size(); ++d) {
      ASSERT_EQ(streams[t][d], loop.Draw(twin)) << "thread " << t << " draw " << d;
    }
  }
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(50), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.Record(100);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 100u);
  // Bucketed value is within one sub-bucket of the true value.
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 100.0, 100.0 / Histogram::kSubBuckets + 1);
}

TEST(Histogram, PercentilesOrdered) {
  Histogram h;
  Rng rng(9);
  for (int i = 0; i < 100000; ++i) {
    h.Record(rng.NextBelow(1000000));
  }
  uint64_t prev = 0;
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const uint64_t v = h.Percentile(p);
    EXPECT_GE(v, prev) << "p=" << p;
    prev = v;
  }
}

TEST(Histogram, UniformMedianNearMidpoint) {
  Histogram h;
  Rng rng(13);
  for (int i = 0; i < 200000; ++i) {
    h.Record(rng.NextBelow(1000000));
  }
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 500000.0, 80000.0);
  EXPECT_NEAR(h.Mean(), 500000.0, 20000.0);
}

TEST(Histogram, MergeCombines) {
  Histogram a;
  Histogram b;
  a.Record(10);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
}

TEST(Histogram, ClearResets) {
  Histogram h;
  h.Record(5);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(99), 0u);
}

TEST(Histogram, RecordNWeights) {
  Histogram h;
  h.RecordN(8, 99);
  h.RecordN(1 << 20, 1);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_LE(h.Percentile(50), 8u);
  EXPECT_GT(h.Percentile(100), 1000u);
}

TEST(Histogram, SubBucketShiftMatchesSubBuckets) {
  static_assert(1 << Histogram::kSubBucketShift == Histogram::kSubBuckets);
  EXPECT_EQ(1 << Histogram::kSubBucketShift, Histogram::kSubBuckets);
}

// Regression: Percentile used to return the raw bucket upper edge, which can
// exceed the largest recorded value (and p=0 returned a bucket edge above
// min). Queries must never leave [min, max].
TEST(Histogram, PercentileClampedToRecordedRange) {
  Histogram h;
  h.Record(100);
  // Single sample: every percentile is that sample.
  EXPECT_EQ(h.Percentile(0), 100u);
  EXPECT_EQ(h.Percentile(50), 100u);
  EXPECT_EQ(h.Percentile(100), 100u);
}

TEST(Histogram, PercentileZeroIsMin) {
  Histogram h;
  h.Record(7);
  h.Record(1000);
  EXPECT_EQ(h.Percentile(0), 7u);
}

TEST(Histogram, PercentileTwoExtremeSamples) {
  Histogram h;
  h.Record(7);
  h.Record(1000);
  // p=100 lands in 1000's bucket, whose upper edge (1023) is beyond the
  // recorded max; the clamp must report 1000.
  EXPECT_EQ(h.Percentile(100), 1000u);
  // Every percentile stays inside the recorded range.
  for (double p : {0.0, 10.0, 50.0, 90.0, 99.9, 100.0}) {
    const uint64_t v = h.Percentile(p);
    EXPECT_GE(v, 7u) << "p=" << p;
    EXPECT_LE(v, 1000u) << "p=" << p;
  }
}

// Regression: RecordN computed value * count in plain uint64 arithmetic, so
// large weighted records silently wrapped sum(); it now saturates.
TEST(Histogram, RecordNSaturatesSumNearUint64Max) {
  Histogram h;
  const uint64_t big = ~0ULL / 2 + 1;  // 2^63: big * 2 wraps to 0.
  h.RecordN(big, 2);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), ~0ULL) << "overflowing weighted sum must saturate, not wrap";
  EXPECT_EQ(h.max(), big);
  // Accumulation across calls saturates too.
  h.Record(1);
  EXPECT_EQ(h.sum(), ~0ULL);
  EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, MergeSaturatesInsteadOfWrapping) {
  Histogram a;
  Histogram b;
  a.RecordN(~0ULL, 1);  // sum_ == UINT64_MAX already.
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.sum(), ~0ULL);
  EXPECT_EQ(a.max(), ~0ULL);
  EXPECT_EQ(a.min(), 1000u);
}

TEST(RunningStat, MeanAndVariance) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_NEAR(s.StdDev(), 2.138, 0.001);
}

TEST(Stats, GeometricMean) {
  EXPECT_DOUBLE_EQ(GeometricMean({}), 0.0);
  EXPECT_NEAR(GeometricMean({2.0, 8.0}), 4.0, 1e-9);
  EXPECT_NEAR(GeometricMean({1.0, 1.0, 1.0}), 1.0, 1e-9);
}

TEST(Stats, LoessSmoothPreservesConstant) {
  std::vector<double> flat(50, 3.0);
  const auto out = LoessSmooth(flat, 5);
  ASSERT_EQ(out.size(), flat.size());
  for (double v : out) {
    EXPECT_NEAR(v, 3.0, 1e-9);
  }
}

TEST(Stats, LoessSmoothReducesNoise) {
  Rng rng(21);
  std::vector<double> noisy;
  for (int i = 0; i < 200; ++i) {
    noisy.push_back(100.0 + (rng.NextDouble() - 0.5) * 20.0);
  }
  const auto out = LoessSmooth(noisy, 10);
  RunningStat raw;
  RunningStat smooth;
  for (size_t i = 0; i < noisy.size(); ++i) {
    raw.Add(noisy[i]);
    smooth.Add(out[i]);
  }
  EXPECT_LT(smooth.StdDev(), raw.StdDev() * 0.6);
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsAllSubmittedJobs) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([&count] { count.fetch_add(1); }));
  }
  for (auto& future : futures) {
    future.get();
  }
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, ExceptionIsolation) {
  ThreadPool pool(2);
  std::atomic<int> survived{0};
  auto bad = pool.Submit([] { throw std::runtime_error("job failure"); });
  std::vector<std::future<void>> good;
  for (int i = 0; i < 16; ++i) {
    good.push_back(pool.Submit([&survived] { survived.fetch_add(1); }));
  }
  EXPECT_THROW(bad.get(), std::runtime_error);
  for (auto& future : good) {
    future.get();  // Workers outlive the throwing job.
  }
  EXPECT_EQ(survived.load(), 16);
}

TEST(ThreadPoolTest, DestructorAbandonsPendingJobs) {
  auto pool = std::make_unique<ThreadPool>(1);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::promise<void> started;
  auto blocker = pool->Submit([open, &started] {
    started.set_value();
    open.wait();
  });
  started.get_future().wait();  // Worker is busy; the next job must queue.
  std::future<void> queued = pool->Submit([] {});
  // Destroy the pool while the worker is blocked: the destructor must break
  // the queued job's promise before joining. The destructor itself blocks on
  // the worker, so run it on a helper thread and release the gate only after
  // the abandonment is observable.
  std::thread destroyer([&pool] { pool.reset(); });
  queued.wait();  // Ready (with broken_promise) once the queue is cleared.
  gate.set_value();
  destroyer.join();
  blocker.get();
  EXPECT_THROW(queued.get(), std::future_error);
}

}  // namespace
}  // namespace demeter
