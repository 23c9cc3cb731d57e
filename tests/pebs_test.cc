#include <gtest/gtest.h>

#include <vector>

#include "src/pebs/pebs.h"

namespace demeter {
namespace {

PebsConfig SmallConfig() {
  PebsConfig config;
  config.sample_period = 10;
  config.latency_threshold_ns = 64.0;
  config.buffer_capacity = 4;
  return config;
}

TEST(Pebs, DisabledProducesNothing) {
  PebsUnit unit(SmallConfig());
  for (int i = 0; i < 100; ++i) {
    unit.OnAccess(0x1000, 200.0, false, 0);
  }
  EXPECT_EQ(unit.stats().records_written, 0u);
  EXPECT_EQ(unit.buffered(), 0u);
}

TEST(Pebs, SamplesEveryPeriod) {
  PebsUnit unit(SmallConfig());
  unit.set_enabled(true);
  for (int i = 0; i < 35; ++i) {
    unit.OnAccess(0x1000, 200.0, false, static_cast<Nanos>(i));
  }
  EXPECT_EQ(unit.stats().events_counted, 35u);
  EXPECT_EQ(unit.stats().records_written, 3u);
}

TEST(Pebs, LatencyThresholdFiltersCacheHits) {
  PebsUnit unit(SmallConfig());
  unit.set_enabled(true);
  // 53.6 ns (L2 hit) stays below the 64 ns threshold -> no records.
  for (int i = 0; i < 100; ++i) {
    unit.OnAccess(0x1000, 53.6, false, 0);
  }
  EXPECT_EQ(unit.stats().records_written, 0u);
  // 68.7 ns (DRAM read) passes.
  for (int i = 0; i < 100; ++i) {
    unit.OnAccess(0x1000, 68.7, false, 0);
  }
  EXPECT_GT(unit.stats().records_written, 0u);
}

TEST(Pebs, StoresDoNotCountForLoadLatencyEvent) {
  PebsUnit unit(SmallConfig());
  unit.set_enabled(true);
  for (int i = 0; i < 100; ++i) {
    unit.OnAccess(0x1000, 200.0, /*is_store=*/true, 0);
  }
  EXPECT_EQ(unit.stats().events_counted, 0u);
  EXPECT_EQ(unit.stats().records_written, 0u);
}

TEST(Pebs, RecordsCarryGuestVirtualAddress) {
  PebsUnit unit(SmallConfig());
  unit.set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    unit.OnAccess(0xabcd000 + static_cast<uint64_t>(i), 200.0, false, 42);
  }
  auto records = unit.Drain();
  ASSERT_EQ(records.size(), 1u);
  // The 10th access (index 9) triggered the sample.
  EXPECT_EQ(records[0].gva, 0xabcd000u + 9);
  EXPECT_EQ(records[0].timestamp, 42u);
  EXPECT_DOUBLE_EQ(records[0].latency_ns, 200.0);
}

TEST(Pebs, DrainEmptiesBuffer) {
  PebsUnit unit(SmallConfig());
  unit.set_enabled(true);
  for (int i = 0; i < 30; ++i) {
    unit.OnAccess(0x1000, 200.0, false, 0);
  }
  EXPECT_EQ(unit.Drain().size(), 3u);
  EXPECT_EQ(unit.buffered(), 0u);
  EXPECT_TRUE(unit.Drain().empty());
}

// The buffer is reserved at the first record, not at construction, so a
// unit that never samples holds none; a drain hands it out with the records.
TEST(Pebs, BufferReservedAtFirstRecord) {
  PebsUnit unit(SmallConfig());
  EXPECT_EQ(unit.reserved(), 0u);
  unit.set_enabled(true);
  for (int i = 0; i < 9; ++i) {
    unit.OnAccess(0x1000, 200.0, false, 0);
  }
  EXPECT_EQ(unit.reserved(), 0u) << "no record yet";
  unit.OnAccess(0x1000, 200.0, false, 0);
  EXPECT_EQ(unit.buffered(), 1u);
  EXPECT_EQ(unit.reserved(), SmallConfig().buffer_capacity);
  EXPECT_EQ(unit.Drain().size(), 1u);
  EXPECT_EQ(unit.reserved(), 0u);
  for (int i = 0; i < 10; ++i) {
    unit.OnAccess(0x1000, 200.0, false, 0);
  }
  EXPECT_EQ(unit.Drain().size(), 1u);
  for (int i = 0; i < 10; ++i) {
    unit.OnAccess(0x1000, 10.0, false, 0);  // Below the threshold: no record.
  }
  EXPECT_EQ(unit.reserved(), 0u);
}

TEST(Pebs, ReleaseFreesTheBufferAndKeepsCounters) {
  PebsUnit unit(SmallConfig());
  unit.set_enabled(true);
  for (int i = 0; i < 20; ++i) {
    unit.OnAccess(0x1000, 200.0, false, 0);
  }
  ASSERT_EQ(unit.buffered(), 2u);
  const PebsUnit::Stats before = unit.stats();
  unit.ReleaseStorage();
  EXPECT_EQ(unit.buffered(), 0u);
  EXPECT_EQ(unit.reserved(), 0u);
  EXPECT_TRUE(unit.Drain().empty());
  EXPECT_EQ(unit.stats().events_counted, before.events_counted);
  EXPECT_EQ(unit.stats().records_written, before.records_written);
  EXPECT_EQ(unit.stats().records_dropped, before.records_dropped);
  EXPECT_EQ(unit.stats().pmis, before.pmis);
}

TEST(Pebs, PmiFiresOnBufferFullAndChargesCost) {
  PebsUnit unit(SmallConfig());
  unit.set_enabled(true);
  std::vector<PebsRecord> via_pmi;
  unit.set_pmi_handler([&](std::vector<PebsRecord>&& records, Nanos) {
    for (const auto& r : records) {
      via_pmi.push_back(r);
    }
  });
  double pmi_cost = 0.0;
  // 4-record buffer, period 10: the 40th access fills it.
  for (int i = 0; i < 40; ++i) {
    pmi_cost += unit.OnAccess(0x1000, 200.0, false, 0);
  }
  EXPECT_EQ(unit.stats().pmis, 1u);
  EXPECT_DOUBLE_EQ(pmi_cost, unit.config().pmi_cost_ns);
  EXPECT_EQ(via_pmi.size(), 4u);
  EXPECT_EQ(unit.buffered(), 0u);
}

TEST(Pebs, WithoutHandlerPmiDropsRecords) {
  PebsUnit unit(SmallConfig());
  unit.set_enabled(true);
  for (int i = 0; i < 40; ++i) {
    unit.OnAccess(0x1000, 200.0, false, 0);
  }
  EXPECT_EQ(unit.stats().pmis, 1u);
  EXPECT_EQ(unit.stats().records_dropped, 4u);
}

TEST(Pebs, LowFrequencyAvoidsPmis) {
  // Demeter's design point: small constant frequency + context-switch drains
  // keep the buffer from ever overshooting.
  PebsConfig config;
  config.sample_period = 4093;
  config.buffer_capacity = 512;
  PebsUnit unit(config);
  unit.set_enabled(true);
  for (int i = 0; i < 1000000; ++i) {
    unit.OnAccess(0x1000, 200.0, false, 0);
    if (i % 100000 == 0) {
      unit.Drain();  // Context-switch drain.
    }
  }
  EXPECT_EQ(unit.stats().pmis, 0u);
  EXPECT_GT(unit.stats().records_written, 0u);
}

TEST(Pebs, HighFrequencyWithoutDrainsPmisHeavily) {
  PebsConfig config;
  config.sample_period = 7;
  config.buffer_capacity = 64;
  PebsUnit unit(config);
  unit.set_enabled(true);
  unit.set_pmi_handler([](std::vector<PebsRecord>&&, Nanos) {});
  double total_pmi_cost = 0.0;
  for (int i = 0; i < 1000000; ++i) {
    total_pmi_cost += unit.OnAccess(0x1000, 200.0, false, 0);
  }
  EXPECT_GT(unit.stats().pmis, 1000u);
  EXPECT_GT(total_pmi_cost, 1e6);
}

TEST(Pebs, EptFriendlinessGate) {
  PebsConfig v5;
  v5.ept_friendly = true;
  PebsConfig legacy;
  legacy.ept_friendly = false;
  // With lazily-backed guest memory (overcommit), only PEBS v5 is usable.
  EXPECT_TRUE(PebsUnit(v5).UsableInGuest(/*lazily_backed=*/true));
  EXPECT_FALSE(PebsUnit(legacy).UsableInGuest(/*lazily_backed=*/true));
  // Eager backing works around the architectural bug.
  EXPECT_TRUE(PebsUnit(legacy).UsableInGuest(/*lazily_backed=*/false));
}

TEST(Pebs, PaperDefaults) {
  PebsConfig config;
  EXPECT_EQ(config.sample_period, 4093u);
  EXPECT_DOUBLE_EQ(config.latency_threshold_ns, 64.0);
  EXPECT_EQ(config.event, PebsEvent::kLoadLatency);
}

}  // namespace
}  // namespace demeter
