// Unified metrics layer: every per-subsystem counter, gauge, and latency
// distribution in the simulator hangs off one MetricRegistry under a
// hierarchical slash-separated name ("vm0/tlb/full_flushes",
// "host/hyper/ept_populates"), replacing the N divergent ad-hoc stats
// structs as the export path for experiment results.
//
// The registry stores no values: each subsystem keeps its own stats struct
// (the hot path stays a plain `++field`) and registers a pointer to a cell
// or a read callback; snapshots read through it. This is how the stats
// structs (TlbStats, VmStats, PebsUnit::Stats, BalloonStats, policy
// counters) joined the registry without touching their increment sites:
// their accessor APIs are views over the same cells the registry exports.
//
// Determinism guarantee: a snapshot is an ordered list sorted by metric
// name (std::map iteration), and serialization uses fixed formatting, so
// identical simulations produce byte-identical snapshot JSON regardless of
// registration order, --jobs value, or platform.

#ifndef DEMETER_SRC_TELEMETRY_METRICS_H_
#define DEMETER_SRC_TELEMETRY_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/histogram.h"

namespace demeter {

enum class MetricKind { kCounter, kGauge, kDistribution };

const char* MetricKindName(MetricKind kind);

// Point-in-time summary of a Histogram-backed distribution.
struct DistributionSummary {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double mean = 0.0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;

  static DistributionSummary FromHistogram(const Histogram& histogram);
};

// One metric at snapshot time. Exactly the field matching `kind` is
// meaningful.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  uint64_t counter = 0;
  double gauge = 0.0;
  DistributionSummary distribution;
};

// Immutable, name-sorted capture of a registry (or a filtered part of one).
class MetricSnapshot {
 public:
  MetricSnapshot() = default;
  // `samples` must already be sorted by name (the registry guarantees it).
  explicit MetricSnapshot(std::vector<MetricSample> samples);

  const std::vector<MetricSample>& samples() const { return samples_; }
  bool empty() const { return samples_.empty(); }
  size_t size() const { return samples_.size(); }

  // Sample by exact name, or nullptr.
  const MetricSample* Find(std::string_view name) const;
  // Counter value by name; `fallback` when absent or not a counter.
  uint64_t CounterValue(std::string_view name, uint64_t fallback = 0) const;

  // Delta since `earlier`: counters and distribution count/sum subtract
  // (saturating at zero — a reset metric reads as zero progress, never as
  // an underflowed giant); gauges and distribution min/max/quantiles keep
  // their current values, since they are not accumulative. Metrics absent
  // from `earlier` are treated as having started at zero.
  MetricSnapshot Diff(const MetricSnapshot& earlier) const;

  // Samples whose name starts with `prefix`; when `strip` the prefix is
  // removed from the returned names (sortedness is preserved either way
  // because every retained name shares the same prefix).
  MetricSnapshot FilterPrefix(std::string_view prefix, bool strip = true) const;

  // Stable-ordered JSON object: {"a/b":1,"c":2.5,"d":{"count":...}}.
  // Counters are integers, gauges %.9g floats, distributions nested
  // objects with count/sum/min/max/mean/p50/p90/p99/p999.
  void AppendJson(std::string& out) const;
  std::string ToJson() const;

 private:
  std::vector<MetricSample> samples_;
};

// The registry. Not thread-safe: each simulation (Machine) owns one and
// runs single-threaded; the parallel runner gives every job its own.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Registered views over subsystem-owned stats. The pointed-to cell (or
  // callback captures) must outlive every Snapshot() call. Registering an
  // already-bound name aborts.
  void RegisterCounter(std::string_view name, const uint64_t* cell);
  void RegisterCounterFn(std::string_view name, std::function<uint64_t()> read);
  void RegisterGauge(std::string_view name, const double* cell);
  void RegisterGaugeFn(std::string_view name, std::function<double()> read);
  void RegisterDistribution(std::string_view name, const Histogram* histogram);

  size_t size() const { return cells_.size(); }

  // Reads every metric (through registered views where bound) into a
  // name-sorted snapshot.
  MetricSnapshot Snapshot() const;

  // Snapshot of only the metrics whose name starts with `prefix`, read via a
  // range scan over the sorted map — O(matches + log n), never the whole
  // registry. When `strip` the prefix (and a following '/') is removed from
  // the returned names. Equivalent to Snapshot().FilterPrefix(prefix, strip).
  MetricSnapshot SnapshotPrefix(std::string_view prefix, bool strip = true) const;

 private:
  struct Cell {
    MetricKind kind = MetricKind::kCounter;
    // The bound source: exactly one is set, and it matches `kind`.
    const uint64_t* ext_counter = nullptr;
    const double* ext_gauge = nullptr;
    const Histogram* ext_distribution = nullptr;
    std::function<uint64_t()> fn_counter;
    std::function<double()> fn_gauge;
  };

  Cell& NewCell(std::string_view name, MetricKind kind);
  // Reads one cell (through its registered view where bound) into a sample.
  static MetricSample SampleCell(const std::string& name, const Cell& cell);

  // std::map: stable cell addresses (node-based) and name-sorted iteration,
  // which is what makes snapshots deterministic.
  std::map<std::string, Cell, std::less<>> cells_;
};

// Prefix-scoped handle: Scope("vm0").Sub("tlb").RegisterCounter("hits", &c)
// binds "vm0/tlb/hits". Cheap to copy; does not own the registry.
class MetricScope {
 public:
  MetricScope(MetricRegistry* registry, std::string prefix);

  MetricScope Sub(std::string_view name) const;
  const std::string& prefix() const { return prefix_; }
  MetricRegistry& registry() const { return *registry_; }

  // Full name under this scope's prefix.
  std::string Name(std::string_view name) const;

  void RegisterCounter(std::string_view name, const uint64_t* cell) const;
  void RegisterCounterFn(std::string_view name, std::function<uint64_t()> read) const;
  void RegisterGauge(std::string_view name, const double* cell) const;
  void RegisterGaugeFn(std::string_view name, std::function<double()> read) const;
  void RegisterDistribution(std::string_view name, const Histogram* histogram) const;

 private:
  MetricRegistry* registry_;
  std::string prefix_;  // Without trailing slash; may be empty (root).
};

// ---- multi-host composition -----------------------------------------------
// Re-namespaces a single-machine snapshot under a host scope: the host tree
// "host/X" becomes "<host_scope>/X" (the scope replaces the generic "host"),
// and every other name N (the per-VM "vm<i>/..." trees) becomes
// "<host_scope>/N". Names are re-sorted, so the result is a valid snapshot.
MetricSnapshot RebaseMetricSnapshot(const MetricSnapshot& snapshot, std::string_view host_scope);

// Concatenates several snapshots into one name-sorted snapshot. Callers keep
// names disjoint (distinct host scopes); equal names sort stably in input
// order.
MetricSnapshot MergeMetricSnapshots(std::vector<MetricSnapshot> parts);

}  // namespace demeter

#endif  // DEMETER_SRC_TELEMETRY_METRICS_H_
