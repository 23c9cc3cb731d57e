#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/base/histogram.h"
#include "src/telemetry/json.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/tracer.h"

namespace demeter {
namespace {

// ---- JSON helpers -----------------------------------------------------------

TEST(Json, EscapesSpecials) {
  std::string out;
  AppendJsonEscaped(out, "a\"b\\c\nd\te\x01" "f");
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd\\te\\u0001f");
}

TEST(Json, KeyValueForms) {
  std::string out;
  out += '{';
  AppendJsonStr(out, "s", "v");
  out += ',';
  AppendJsonU64(out, "u", 18446744073709551615ULL);
  out += ',';
  AppendJsonF64(out, "f", 0.25);
  out += '}';
  EXPECT_EQ(out, "{\"s\":\"v\",\"u\":18446744073709551615,\"f\":0.25}");
}

// ---- Histogram merge edge cases ---------------------------------------------

TEST(HistogramMerge, IntoEmptyAdoptsRangeExactly) {
  // min_ initializes to ~0ULL; merging a populated histogram into a fresh
  // one must adopt the source's true min/max instead of keeping sentinels.
  Histogram src;
  src.Record(100);
  src.Record(900000);
  Histogram dst;
  dst.Merge(src);
  EXPECT_EQ(dst.count(), 2u);
  EXPECT_EQ(dst.sum(), 900100u);
  EXPECT_EQ(dst.min(), 100u);
  EXPECT_EQ(dst.max(), 900000u);
  EXPECT_EQ(dst.Percentile(0), 100u);
  EXPECT_LE(dst.Percentile(100), 900000u) << "percentiles clamp to recorded range";
}

TEST(HistogramMerge, EmptySourceIsIdentity) {
  // The mirror case: an empty source (min_ still ~0ULL, max_ 0) must not
  // clobber the destination's range or counts.
  Histogram dst;
  dst.Record(50);
  dst.Record(7000);
  const Histogram empty;
  dst.Merge(empty);
  EXPECT_EQ(dst.count(), 2u);
  EXPECT_EQ(dst.sum(), 7050u);
  EXPECT_EQ(dst.min(), 50u);
  EXPECT_EQ(dst.max(), 7000u);
}

TEST(HistogramMerge, BothEmptyStaysEmpty) {
  Histogram dst;
  dst.Merge(Histogram{});
  EXPECT_EQ(dst.count(), 0u);
  EXPECT_EQ(dst.min(), 0u) << "empty histogram reports 0, not the sentinel";
  EXPECT_EQ(dst.max(), 0u);
  EXPECT_EQ(dst.Percentile(50), 0u);
}

TEST(HistogramMerge, DisjointRangesMatchSequentialRecords) {
  // Non-overlapping value ranges: merge must be exactly equivalent to
  // having recorded both streams into one histogram (buckets are globally
  // log-linear indexed, so index-wise add is exact, not approximate).
  Histogram low;
  Histogram high;
  Histogram combined;
  for (uint64_t v = 1; v <= 64; ++v) {
    low.Record(v);
    combined.Record(v);
  }
  for (uint64_t v = 1 << 20; v < (1 << 20) + 64; ++v) {
    high.Record(v);
    combined.Record(v);
  }
  low.Merge(high);
  EXPECT_EQ(low.count(), combined.count());
  EXPECT_EQ(low.sum(), combined.sum());
  EXPECT_EQ(low.min(), combined.min());
  EXPECT_EQ(low.max(), combined.max());
  for (const double p : {0.0, 25.0, 50.0, 75.0, 99.0, 100.0}) {
    EXPECT_EQ(low.Percentile(p), combined.Percentile(p)) << "p" << p;
  }
}

TEST(HistogramMerge, SumSaturatesInsteadOfWrapping) {
  Histogram a;
  Histogram b;
  a.RecordN(~0ULL, 1);  // sum saturates at UINT64_MAX already.
  b.Record(12345);
  a.Merge(b);
  EXPECT_EQ(a.sum(), ~0ULL) << "merge must saturate like RecordN";
  EXPECT_EQ(a.count(), 2u);
}

// ---- MetricRegistry ---------------------------------------------------------

TEST(MetricRegistry, RegisteredViewsReadThrough) {
  MetricRegistry registry;
  uint64_t hits = 0;
  double level = 0.0;
  Histogram hist;
  registry.RegisterCounter("tlb/hits", &hits);
  registry.RegisterGauge("mem/level", &level);
  registry.RegisterDistribution("walk", &hist);
  registry.RegisterCounterFn("derived", [&hits] { return hits * 2; });

  // Mutate through the subsystem's own storage — the legacy `++field` path.
  hits = 7;
  level = 0.5;
  hist.Record(42);

  const MetricSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("tlb/hits"), 7u);
  EXPECT_EQ(snap.CounterValue("derived"), 14u);
  EXPECT_DOUBLE_EQ(snap.Find("mem/level")->gauge, 0.5);
  EXPECT_EQ(snap.Find("walk")->distribution.count, 1u);
}

TEST(MetricRegistry, SnapshotPrefixMatchesFilteredFullSnapshot) {
  // SnapshotPrefix reads only the matching subtree (the per-VM finish path
  // depends on this being O(subtree), not O(registry)); its output must be
  // byte-equivalent to the old snapshot-everything-then-filter route.
  MetricRegistry registry;
  const uint64_t vm1_txns = 5;
  const uint64_t vm10_txns = 7;
  const uint64_t promotions = 3;
  const double level = 0.5;
  Histogram lat;
  lat.Record(42);
  registry.RegisterCounter("vm1/transactions", &vm1_txns);
  registry.RegisterCounter("vm10/transactions", &vm10_txns);  // Shares the "vm1" prefix.
  registry.RegisterCounter("vm2/policy/promotions", &promotions);
  registry.RegisterGauge("vm2/level", &level);
  registry.RegisterDistribution("vm2/lat", &lat);

  const MetricSnapshot direct = registry.SnapshotPrefix("vm2/", /*strip=*/true);
  const MetricSnapshot filtered = registry.Snapshot().FilterPrefix("vm2", true);
  EXPECT_EQ(direct.ToJson(), filtered.ToJson());
  EXPECT_EQ(direct.CounterValue("policy/promotions"), 3u);
  // Prefix matching is exact: "vm1/" must not pick up "vm10/".
  EXPECT_EQ(registry.SnapshotPrefix("vm1/", true).size(), 1u);
}

TEST(MetricRegistry, SnapshotIsNameSorted) {
  MetricRegistry registry;
  const uint64_t zero = 0;
  for (const char* name : {"z", "a/b", "a", "m"}) {
    registry.RegisterCounter(name, &zero);
  }
  const MetricSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap.samples()[i - 1].name, snap.samples()[i].name);
  }
}

TEST(MetricScope, PrefixesCompose) {
  MetricRegistry registry;
  MetricScope root(&registry, "vm0");
  MetricScope tlb = root.Sub("tlb");
  EXPECT_EQ(tlb.Name("hits"), "vm0/tlb/hits");
  const uint64_t hits = 5;
  tlb.RegisterCounter("hits", &hits);
  EXPECT_EQ(registry.Snapshot().CounterValue("vm0/tlb/hits"), 5u);
}

TEST(MetricSnapshot, DiffSubtractsCountersSaturating) {
  MetricRegistry registry;
  uint64_t c = 10;
  double level = 3.0;
  registry.RegisterCounter("ops", &c);
  registry.RegisterGauge("level", &level);
  const MetricSnapshot before = registry.Snapshot();
  c = 25;
  level = 9.0;
  const MetricSnapshot after = registry.Snapshot();

  const MetricSnapshot diff = after.Diff(before);
  EXPECT_EQ(diff.CounterValue("ops"), 15u);
  // Gauges keep their current value — they are not accumulative.
  EXPECT_DOUBLE_EQ(diff.Find("level")->gauge, 9.0);

  // A reset (smaller current than earlier) saturates to zero, not 2^64-ish.
  const MetricSnapshot regressed = before.Diff(after);
  EXPECT_EQ(regressed.CounterValue("ops"), 0u);
}

TEST(MetricSnapshot, FilterPrefixStrips) {
  MetricRegistry registry;
  const uint64_t values[] = {1, 2, 3, 4};
  registry.RegisterCounter("vm0/tlb/hits", &values[0]);
  registry.RegisterCounter("vm0/stats/ops", &values[1]);
  registry.RegisterCounter("vm1/tlb/hits", &values[2]);
  registry.RegisterCounter("host/populates", &values[3]);

  const MetricSnapshot vm0 = registry.Snapshot().FilterPrefix("vm0/", /*strip=*/true);
  EXPECT_EQ(vm0.size(), 2u);
  EXPECT_EQ(vm0.CounterValue("tlb/hits"), 1u);
  EXPECT_EQ(vm0.CounterValue("stats/ops"), 2u);
  EXPECT_EQ(vm0.Find("vm1/tlb/hits"), nullptr);
}

TEST(MetricSnapshot, JsonIsStableAndTyped) {
  MetricRegistry registry;
  const uint64_t count = 2;
  const double level = 0.5;
  Histogram h;
  h.Record(10);
  h.Record(1000);
  registry.RegisterCounter("b/count", &count);
  registry.RegisterGauge("a/level", &level);
  registry.RegisterDistribution("c/lat", &h);

  const std::string json = registry.Snapshot().ToJson();
  // Name-sorted keys; counters as integers, gauges as floats, distributions
  // as nested objects.
  EXPECT_EQ(json.find("{\"a/level\":0.5,\"b/count\":2,\"c/lat\":{"), 0u) << json;
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"min\":10"), std::string::npos);
  // Byte-identical across snapshots of the same state.
  EXPECT_EQ(json, registry.Snapshot().ToJson());
}

TEST(DistributionSummary, FromHistogramQuantiles) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  const DistributionSummary s = DistributionSummary::FromHistogram(h);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_NEAR(static_cast<double>(s.p50), 500.0, 500.0 / Histogram::kSubBuckets + 1);
  EXPECT_GE(s.p999, s.p99);
  EXPECT_GE(s.p99, s.p90);
  EXPECT_GE(s.p90, s.p50);
  EXPECT_LE(s.p999, s.max);
}

// ---- Tracer -----------------------------------------------------------------

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer;
  tracer.Instant("cat", "event", 100, 0, 0);
  tracer.Span("cat", "span", 100, 50.0, 0, 0);
  EXPECT_TRUE(tracer.events().empty());
}

TEST(Tracer, RecordsInstantsAndSpans) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.Instant("tlb", "full_flush", 100, /*pid=*/1, /*tid=*/0,
                 TraceArgs().Add("vcpus", uint64_t{2}).str());
  tracer.Span("tmm", "demeter", 200, 50.5, /*pid=*/1, /*tid=*/0);
  ASSERT_EQ(tracer.events().size(), 2u);
  EXPECT_EQ(tracer.events()[0].phase, 'i');
  EXPECT_EQ(tracer.events()[0].args, "\"vcpus\":2");
  EXPECT_EQ(tracer.events()[1].phase, 'X');
  EXPECT_DOUBLE_EQ(tracer.events()[1].dur_ns, 50.5);
}

TEST(Tracer, BoundedWithDropCount) {
  Tracer tracer(/*max_events=*/3);
  tracer.set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    tracer.Instant("cat", "e", i, 0, 0);
  }
  EXPECT_EQ(tracer.events().size(), 3u);
  EXPECT_EQ(tracer.dropped(), 7u);
}

TEST(Tracer, TakeEventsMovesOut) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.Instant("cat", "e", 1, 0, 0);
  const std::vector<TraceEvent> events = tracer.TakeEvents();
  EXPECT_EQ(events.size(), 1u);
  EXPECT_TRUE(tracer.events().empty());
}

TEST(ChromeTrace, JsonShapeAndPidRebase) {
  Tracer a;
  a.set_enabled(true);
  a.Instant("tlb", "full_flush", 1500, /*pid=*/0, /*tid=*/1);
  a.Span("tmm", "tpp", 2000, 250.0, /*pid=*/1, /*tid=*/0,
         TraceArgs().Add("promoted", uint64_t{4}).str());
  Tracer b;
  b.set_enabled(true);
  b.Instant("pebs", "pmi_drain", 3000, /*pid=*/0, /*tid=*/0);

  const std::vector<TraceEvent> ea = a.TakeEvents();
  const std::vector<TraceEvent> eb = b.TakeEvents();
  const std::string json =
      ChromeTraceJson({NamedTrace{"spec-a", &ea}, NamedTrace{"spec-b", &eb}});

  EXPECT_EQ(json.find("{\"displayTimeUnit\":"), 0u) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // Process metadata names each (trace, pid) lane.
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("spec-a/vm1"), std::string::npos);
  // Second trace's pid 0 is rebased into its own block.
  const std::string rebased = "\"pid\":" + std::to_string(kTracePidStride);
  EXPECT_NE(json.find(rebased), std::string::npos) << json;
  // Phases and timestamps (microseconds: 1500 ns -> 1.500).
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  // Balanced braces/brackets (cheap structural validity check; the CI smoke
  // job additionally parses real output with a JSON parser).
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
    } else if (c == '"') {
      in_string = !in_string;
    } else if (!in_string && (c == '{' || c == '[')) {
      ++depth;
    } else if (!in_string && (c == '}' || c == ']')) {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
}

TEST(ChromeTrace, WideTraceGrowsItsPidBlock) {
  // A trace with pids past kTracePidStride (a 150-VM host, or a cluster's
  // host-folded pids) exports instead of aborting: its block grows to the
  // next stride multiple and the following trace starts past it.
  Tracer wide;
  wide.set_enabled(true);
  wide.Instant("lifecycle", "boot", 1000, /*pid=*/150, /*tid=*/0);
  Tracer next;
  next.set_enabled(true);
  next.Instant("lifecycle", "boot", 2000, /*pid=*/0, /*tid=*/0);

  const std::vector<TraceEvent> ew = wide.TakeEvents();
  const std::vector<TraceEvent> en = next.TakeEvents();
  const std::string json =
      ChromeTraceJson({NamedTrace{"wide", &ew}, NamedTrace{"next", &en}});

  EXPECT_NE(json.find("\"pid\":150,\"tid\":0,\"args\":{\"name\":\"wide/vm150\"}"),
            std::string::npos)
      << json;
  const int next_base = 2 * kTracePidStride;
  EXPECT_NE(json.find("\"pid\":" + std::to_string(next_base) +
                      ",\"tid\":0,\"args\":{\"name\":\"next/vm0\"}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("\"pid\":" + std::to_string(kTracePidStride) + ","), std::string::npos)
      << json;
}

TEST(ChromeTrace, EmptyTraceListIsValid) {
  const std::string json = ChromeTraceJson({});
  EXPECT_EQ(json.find("{\"displayTimeUnit\":"), 0u);
  EXPECT_NE(json.find("\"traceEvents\":[]"), std::string::npos);
}

TEST(ChromeTraceDeathTest, WriteErrorAbortsNamingThePath) {
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) {
    GTEST_SKIP() << "/dev/full cannot be opened";
  }
  std::fclose(probe);
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.Instant("lifecycle", "boot", 1000, /*pid=*/0, /*tid=*/0);
  const std::vector<TraceEvent> events = tracer.TakeEvents();
  // A full disk used to leave an empty or truncated trace and a clean exit.
  EXPECT_DEATH(WriteChromeTraceFile("/dev/full", {NamedTrace{"full-disk", &events}}),
               "cannot write /dev/full");
}

}  // namespace
}  // namespace demeter
