#include "src/telemetry/metrics.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/telemetry/json.h"

namespace demeter {
namespace {

// Names are slash-separated paths of lowercase identifiers; rejecting
// anything else keeps serialized keys escape-free and greppable.
bool ValidNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' || c == '-' ||
         c == '.' || c == '/';
}

void CheckName(std::string_view name) {
  DEMETER_CHECK(!name.empty()) << "empty metric name";
  DEMETER_CHECK(name.front() != '/' && name.back() != '/') << "metric name '" << std::string(name)
                                                           << "' has a leading/trailing slash";
  for (char c : name) {
    DEMETER_CHECK(ValidNameChar(c))
        << "metric name '" << std::string(name) << "' has invalid character '" << c << "'";
  }
}

uint64_t SaturatingSub(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }

}  // namespace

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kDistribution:
      return "distribution";
  }
  return "?";
}

DistributionSummary DistributionSummary::FromHistogram(const Histogram& histogram) {
  DistributionSummary s;
  s.count = histogram.count();
  s.sum = histogram.sum();
  s.min = histogram.min();
  s.max = histogram.max();
  s.mean = histogram.Mean();
  s.p50 = histogram.Percentile(50);
  s.p90 = histogram.Percentile(90);
  s.p99 = histogram.Percentile(99);
  s.p999 = histogram.Percentile(99.9);
  return s;
}

// ---- MetricSnapshot ---------------------------------------------------------

MetricSnapshot::MetricSnapshot(std::vector<MetricSample> samples)
    : samples_(std::move(samples)) {
  for (size_t i = 1; i < samples_.size(); ++i) {
    DEMETER_CHECK_LT(samples_[i - 1].name, samples_[i].name)
        << "snapshot samples not sorted/unique";
  }
}

const MetricSample* MetricSnapshot::Find(std::string_view name) const {
  const auto it = std::lower_bound(
      samples_.begin(), samples_.end(), name,
      [](const MetricSample& s, std::string_view n) { return s.name < n; });
  return it != samples_.end() && it->name == name ? &*it : nullptr;
}

uint64_t MetricSnapshot::CounterValue(std::string_view name, uint64_t fallback) const {
  const MetricSample* s = Find(name);
  return s != nullptr && s->kind == MetricKind::kCounter ? s->counter : fallback;
}

MetricSnapshot MetricSnapshot::Diff(const MetricSnapshot& earlier) const {
  std::vector<MetricSample> out;
  out.reserve(samples_.size());
  for (const MetricSample& sample : samples_) {
    MetricSample d = sample;
    const MetricSample* base = earlier.Find(sample.name);
    if (base != nullptr && base->kind == sample.kind) {
      switch (sample.kind) {
        case MetricKind::kCounter:
          d.counter = SaturatingSub(sample.counter, base->counter);
          break;
        case MetricKind::kGauge:
          break;  // Gauges are levels, not accumulators: keep current.
        case MetricKind::kDistribution:
          d.distribution.count = SaturatingSub(sample.distribution.count,
                                               base->distribution.count);
          d.distribution.sum = SaturatingSub(sample.distribution.sum, base->distribution.sum);
          // min/max/mean/quantiles describe the full population; a bucket
          // subtraction would be needed for interval quantiles, which the
          // summary no longer carries. Keep current values.
          break;
      }
    }
    out.push_back(std::move(d));
  }
  return MetricSnapshot(std::move(out));
}

MetricSnapshot MetricSnapshot::FilterPrefix(std::string_view prefix, bool strip) const {
  std::vector<MetricSample> out;
  for (const MetricSample& sample : samples_) {
    if (sample.name.size() < prefix.size() ||
        std::string_view(sample.name).substr(0, prefix.size()) != prefix) {
      continue;
    }
    MetricSample kept = sample;
    if (strip) {
      kept.name.erase(0, prefix.size());
      // Also drop a separator left at the front ("vm0/" given prefix "vm0").
      if (!kept.name.empty() && kept.name.front() == '/') {
        kept.name.erase(0, 1);
      }
    }
    out.push_back(std::move(kept));
  }
  return MetricSnapshot(std::move(out));
}

void MetricSnapshot::AppendJson(std::string& out) const {
  out += '{';
  bool first = true;
  for (const MetricSample& sample : samples_) {
    if (!first) {
      out += ',';
    }
    first = false;
    switch (sample.kind) {
      case MetricKind::kCounter:
        AppendJsonU64(out, sample.name, sample.counter);
        break;
      case MetricKind::kGauge:
        AppendJsonF64(out, sample.name, sample.gauge);
        break;
      case MetricKind::kDistribution: {
        AppendJsonKey(out, sample.name);
        out += '{';
        const DistributionSummary& d = sample.distribution;
        AppendJsonU64(out, "count", d.count);
        out += ',';
        AppendJsonU64(out, "sum", d.sum);
        out += ',';
        AppendJsonU64(out, "min", d.min);
        out += ',';
        AppendJsonU64(out, "max", d.max);
        out += ',';
        AppendJsonF64(out, "mean", d.mean);
        out += ',';
        AppendJsonU64(out, "p50", d.p50);
        out += ',';
        AppendJsonU64(out, "p90", d.p90);
        out += ',';
        AppendJsonU64(out, "p99", d.p99);
        out += ',';
        AppendJsonU64(out, "p999", d.p999);
        out += '}';
        break;
      }
    }
  }
  out += '}';
}

std::string MetricSnapshot::ToJson() const {
  std::string out;
  AppendJson(out);
  return out;
}

// ---- MetricRegistry ---------------------------------------------------------

MetricRegistry::Cell& MetricRegistry::NewCell(std::string_view name, MetricKind kind) {
  CheckName(name);
  auto [it, inserted] = cells_.try_emplace(std::string(name));
  if (!inserted) {
    DEMETER_CHECK(false) << "metric '" << std::string(name) << "' already registered as "
                         << MetricKindName(it->second.kind);
  }
  it->second.kind = kind;
  return it->second;
}

void MetricRegistry::RegisterCounter(std::string_view name, const uint64_t* cell) {
  DEMETER_CHECK(cell != nullptr);
  NewCell(name, MetricKind::kCounter).ext_counter = cell;
}

void MetricRegistry::RegisterCounterFn(std::string_view name, std::function<uint64_t()> read) {
  DEMETER_CHECK(read != nullptr);
  NewCell(name, MetricKind::kCounter).fn_counter = std::move(read);
}

void MetricRegistry::RegisterGauge(std::string_view name, const double* cell) {
  DEMETER_CHECK(cell != nullptr);
  NewCell(name, MetricKind::kGauge).ext_gauge = cell;
}

void MetricRegistry::RegisterGaugeFn(std::string_view name, std::function<double()> read) {
  DEMETER_CHECK(read != nullptr);
  NewCell(name, MetricKind::kGauge).fn_gauge = std::move(read);
}

void MetricRegistry::RegisterDistribution(std::string_view name, const Histogram* histogram) {
  DEMETER_CHECK(histogram != nullptr);
  NewCell(name, MetricKind::kDistribution).ext_distribution = histogram;
}

MetricSample MetricRegistry::SampleCell(const std::string& name, const Cell& cell) {
  MetricSample sample;
  sample.name = name;
  sample.kind = cell.kind;
  switch (cell.kind) {
    case MetricKind::kCounter:
      sample.counter = cell.fn_counter ? cell.fn_counter() : *cell.ext_counter;
      break;
    case MetricKind::kGauge:
      sample.gauge = cell.fn_gauge ? cell.fn_gauge() : *cell.ext_gauge;
      break;
    case MetricKind::kDistribution:
      sample.distribution = DistributionSummary::FromHistogram(*cell.ext_distribution);
      break;
  }
  return sample;
}

MetricSnapshot MetricRegistry::Snapshot() const {
  std::vector<MetricSample> samples;
  samples.reserve(cells_.size());
  for (const auto& [name, cell] : cells_) {
    samples.push_back(SampleCell(name, cell));
  }
  return MetricSnapshot(std::move(samples));
}

MetricSnapshot MetricRegistry::SnapshotPrefix(std::string_view prefix, bool strip) const {
  std::vector<MetricSample> samples;
  for (auto it = cells_.lower_bound(prefix); it != cells_.end(); ++it) {
    const std::string_view name = it->first;
    if (name.substr(0, prefix.size()) != prefix) {
      break;  // Sorted map: past the last name sharing the prefix.
    }
    MetricSample sample = SampleCell(it->first, it->second);
    if (strip) {
      sample.name.erase(0, prefix.size());
      // Also drop a separator left at the front ("vm0/" given prefix "vm0").
      if (!sample.name.empty() && sample.name.front() == '/') {
        sample.name.erase(0, 1);
      }
    }
    samples.push_back(std::move(sample));
  }
  return MetricSnapshot(std::move(samples));
}

// ---- MetricScope ------------------------------------------------------------

MetricScope::MetricScope(MetricRegistry* registry, std::string prefix)
    : registry_(registry), prefix_(std::move(prefix)) {
  DEMETER_CHECK(registry != nullptr);
  while (!prefix_.empty() && prefix_.back() == '/') {
    prefix_.pop_back();
  }
}

MetricScope MetricScope::Sub(std::string_view name) const {
  return MetricScope(registry_, Name(name));
}

std::string MetricScope::Name(std::string_view name) const {
  if (prefix_.empty()) {
    return std::string(name);
  }
  std::string full = prefix_;
  full += '/';
  full += name;
  return full;
}

void MetricScope::RegisterCounter(std::string_view name, const uint64_t* cell) const {
  registry_->RegisterCounter(Name(name), cell);
}

void MetricScope::RegisterCounterFn(std::string_view name, std::function<uint64_t()> read) const {
  registry_->RegisterCounterFn(Name(name), std::move(read));
}

void MetricScope::RegisterGauge(std::string_view name, const double* cell) const {
  registry_->RegisterGauge(Name(name), cell);
}

void MetricScope::RegisterGaugeFn(std::string_view name, std::function<double()> read) const {
  registry_->RegisterGaugeFn(Name(name), std::move(read));
}

void MetricScope::RegisterDistribution(std::string_view name, const Histogram* histogram) const {
  registry_->RegisterDistribution(Name(name), histogram);
}

MetricSnapshot RebaseMetricSnapshot(const MetricSnapshot& snapshot, std::string_view host_scope) {
  std::vector<MetricSample> samples;
  samples.reserve(snapshot.size());
  for (const MetricSample& sample : snapshot.samples()) {
    MetricSample rebased = sample;
    std::string_view rest = sample.name;
    if (rest.rfind("host/", 0) == 0) {
      rest.remove_prefix(5);
    }
    rebased.name = std::string(host_scope);
    rebased.name += '/';
    rebased.name += rest;
    samples.push_back(std::move(rebased));
  }
  // Stripping "host/" from some names but not others breaks sortedness
  // ("host/x" and "vm0/x" both land under the scope), so re-sort.
  std::stable_sort(samples.begin(), samples.end(),
                   [](const MetricSample& a, const MetricSample& b) { return a.name < b.name; });
  return MetricSnapshot(std::move(samples));
}

MetricSnapshot MergeMetricSnapshots(std::vector<MetricSnapshot> parts) {
  std::vector<MetricSample> samples;
  size_t total = 0;
  for (const MetricSnapshot& part : parts) {
    total += part.size();
  }
  samples.reserve(total);
  for (const MetricSnapshot& part : parts) {
    samples.insert(samples.end(), part.samples().begin(), part.samples().end());
  }
  std::stable_sort(samples.begin(), samples.end(),
                   [](const MetricSample& a, const MetricSample& b) { return a.name < b.name; });
  return MetricSnapshot(std::move(samples));
}

}  // namespace demeter
