#include "src/fault/fault.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "src/base/logging.h"

namespace demeter {

namespace {

bool ParseProbability(const std::string& text, double* out, std::string* error) {
  char* end = nullptr;
  const double p = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(p) || p < 0.0 || p > 1.0) {
    if (error != nullptr) {
      *error = "probability must be a number in [0,1], got '" + text + "'";
    }
    return false;
  }
  *out = p;
  return true;
}

// Parses the unsigned decimal integer that `text` starts with. strtoull
// alone would skip blanks, wrap a leading '-' and saturate on overflow;
// here the text must start with a digit and the value must fit.
bool ParseLeadingUint64(const char* text, uint64_t* out, char** end) {
  if (!std::isdigit(static_cast<unsigned char>(*text))) {
    return false;
  }
  errno = 0;
  const unsigned long long value = std::strtoull(text, end, 10);
  if (errno == ERANGE) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseDuration(const std::string& text, Nanos* out, std::string* error) {
  char* end = nullptr;
  uint64_t value = 0;
  uint64_t scale = 0;  // Stays 0 unless the text is a number with a known suffix.
  if (ParseLeadingUint64(text.c_str(), &value, &end)) {
    if (std::strcmp(end, "ns") == 0 || *end == '\0') {
      scale = 1;
    } else if (std::strcmp(end, "us") == 0) {
      scale = 1000;
    } else if (std::strcmp(end, "ms") == 0) {
      scale = 1000 * 1000;
    } else if (std::strcmp(end, "s") == 0) {
      scale = 1000ULL * 1000 * 1000;
    }
  }
  if (scale == 0 || value > UINT64_MAX / scale) {
    if (error != nullptr) {
      *error = "duration must be a non-negative integer with optional ns/us/ms/s suffix, at "
               "most 2^64-1 ns, got '" + text + "'";
    }
    return false;
  }
  *out = value * scale;
  return true;
}

// Splits "A/B" into its halves; fails when there is no '/' separator.
bool SplitPair(const std::string& text, std::string* a, std::string* b, std::string* error) {
  const size_t slash = text.find('/');
  if (slash == std::string::npos) {
    if (error != nullptr) {
      *error = "expected 'A/B', got '" + text + "'";
    }
    return false;
  }
  *a = text.substr(0, slash);
  *b = text.substr(slash + 1);
  return true;
}

bool InWindow(Nanos now, Nanos duration, Nanos period) {
  if (duration == 0 || period == 0 || now < period) {
    return false;
  }
  return now % period < duration;
}

Nanos WindowEnd(Nanos now, Nanos duration, Nanos period) {
  return (now / period) * period + duration;
}

}  // namespace

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kBalloonDelay:
      return "balloon_delay";
    case FaultSite::kBalloonDrop:
      return "balloon_drop";
    case FaultSite::kGuestStall:
      return "guest_stall";
    case FaultSite::kGuestCrash:
      return "guest_crash";
    case FaultSite::kVirtqueueFull:
      return "virtqueue_full";
    case FaultSite::kPebsSampleLoss:
      return "pebs_sample_loss";
    case FaultSite::kMigrationFail:
      return "migration_fail";
    case FaultSite::kTierExhaustion:
      return "tier_exhaustion";
    case FaultSite::kPoisonFmem:
      return "poison_fmem";
    case FaultSite::kPoisonSmem:
      return "poison_smem";
    case FaultSite::kSwapFail:
      return "swap_fail";
    case FaultSite::kLiveMigrateFail:
      return "live_migrate_fail";
    case FaultSite::kHostFail:
      return "host_fail";
  }
  return "?";
}

bool FaultPlan::empty() const { return *this == FaultPlan{}; }

double FaultPlan::probability(FaultSite site) const {
  switch (site) {
    case FaultSite::kBalloonDelay:
      return balloon_delay_p;
    case FaultSite::kBalloonDrop:
      return balloon_drop_p;
    case FaultSite::kPebsSampleLoss:
      return pebs_drop_p;
    case FaultSite::kMigrationFail:
      return migration_fail_p;
    case FaultSite::kTierExhaustion:
      return tier_exhaust_p;
    case FaultSite::kPoisonFmem:
      return poison_p[0];
    case FaultSite::kPoisonSmem:
      return poison_p[1];
    case FaultSite::kSwapFail:
      return swap_fail_p;
    case FaultSite::kGuestStall:
    case FaultSite::kGuestCrash:
    case FaultSite::kVirtqueueFull:
    case FaultSite::kLiveMigrateFail:  // Per-host; see ShouldFailMigration.
    case FaultSite::kHostFail:         // Per-host; see ShouldFailHost.
      return 0.0;
  }
  return 0.0;
}

std::optional<FaultPlan> FaultPlan::Parse(const std::string& spec, std::string* error) {
  FaultPlan plan;
  // Every parse failure names the offending token so a long spec pinpoints
  // its bad element. Duplicate keys are rejected (last-wins would silently
  // mask typos); tiered keys dedup on "key@tier" so each tier gets one slot.
  std::vector<std::string> seen;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    const std::string token = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (token.empty()) {
      continue;
    }
    std::string detail;  // Inner message; wrapped with the token on failure.
    std::string* err = error != nullptr ? &detail : nullptr;
    auto fail = [&]() {
      if (error != nullptr) {
        *error = "bad --faults token '" + token + "': " + detail;
      }
      return std::nullopt;
    };
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      detail = "expected key=value";
      return fail();
    }
    const std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);

    // Tiered keys carry an `@tier` suffix on the value.
    int tier = -1;
    const bool tiered = key == "poison" || key == "tiershrink";
    if (tiered) {
      const size_t at = value.find('@');
      if (at == std::string::npos) {
        detail = key + " needs an @tier suffix (0=FMEM, 1=SMEM)";
        return fail();
      }
      const std::string tier_text = value.substr(at + 1);
      char* end = nullptr;
      const long t = std::strtol(tier_text.c_str(), &end, 10);
      if (end == tier_text.c_str() || *end != '\0' || t < 0 || t >= kMaxFaultTiers) {
        detail = "tier must be an integer in [0," + std::to_string(kMaxFaultTiers - 1) +
                 "], got '" + tier_text + "'";
        return fail();
      }
      tier = static_cast<int>(t);
      value = value.substr(0, at);
    }

    // Per-host keys carry an `@host` suffix on the value.
    int host = -1;
    const bool hosted = key == "migratefail" || key == "hostfail";
    if (hosted) {
      const size_t at = value.find('@');
      if (at == std::string::npos) {
        detail = key + " needs an @host suffix (0.." + std::to_string(kMaxFaultHosts - 1) + ")";
        return fail();
      }
      const std::string host_text = value.substr(at + 1);
      char* end = nullptr;
      const long h = std::strtol(host_text.c_str(), &end, 10);
      if (end == host_text.c_str() || *end != '\0' || h < 0 || h >= kMaxFaultHosts) {
        detail = "host must be an integer in [0," + std::to_string(kMaxFaultHosts - 1) +
                 "], got '" + host_text + "'";
        return fail();
      }
      host = static_cast<int>(h);
      value = value.substr(0, at);
    }

    const std::string dedup_key = tiered  ? key + "@" + std::to_string(tier)
                                  : hosted ? key + "@" + std::to_string(host)
                                           : key;
    if (std::find(seen.begin(), seen.end(), dedup_key) != seen.end()) {
      detail = "duplicate fault key '" + dedup_key + "'";
      return fail();
    }
    seen.push_back(dedup_key);

    if (key == "bdelay") {
      std::string p, d;
      if (!SplitPair(value, &p, &d, err) || !ParseProbability(p, &plan.balloon_delay_p, err) ||
          !ParseDuration(d, &plan.balloon_delay_ns, err)) {
        return fail();
      }
      if (plan.balloon_delay_p > 0.0 && plan.balloon_delay_ns == 0) {
        detail = "bdelay needs a non-zero duration";
        return fail();
      }
    } else if (key == "bdrop") {
      if (!ParseProbability(value, &plan.balloon_drop_p, err)) {
        return fail();
      }
    } else if (key == "stall" || key == "crash") {
      std::string d, per;
      Nanos duration = 0;
      Nanos period = 0;
      if (!SplitPair(value, &d, &per, err) || !ParseDuration(d, &duration, err) ||
          !ParseDuration(per, &period, err)) {
        return fail();
      }
      if (duration > 0 && (period == 0 || duration > period)) {
        detail = key + " needs duration <= period and period > 0";
        return fail();
      }
      if (key == "stall") {
        plan.stall_duration_ns = duration;
        plan.stall_period_ns = duration > 0 ? period : 0;
      } else {
        plan.crash_duration_ns = duration;
        plan.crash_period_ns = duration > 0 ? period : 0;
      }
    } else if (key == "vqcap") {
      char* end = nullptr;
      uint64_t cap = 0;
      if (!ParseLeadingUint64(value.c_str(), &cap, &end) || *end != '\0') {
        detail = "vqcap must be a non-negative 64-bit integer, got '" + value + "'";
        return fail();
      }
      plan.vq_capacity = cap;
    } else if (key == "pebsdrop") {
      if (!ParseProbability(value, &plan.pebs_drop_p, err)) {
        return fail();
      }
    } else if (key == "migfail") {
      if (!ParseProbability(value, &plan.migration_fail_p, err)) {
        return fail();
      }
    } else if (key == "tierex") {
      if (!ParseProbability(value, &plan.tier_exhaust_p, err)) {
        return fail();
      }
    } else if (key == "poison") {
      if (!ParseProbability(value, &plan.poison_p[static_cast<size_t>(tier)], err)) {
        return fail();
      }
    } else if (key == "tiershrink") {
      std::string f, rest, d, per;
      TierShrink shrink;
      if (!SplitPair(value, &f, &rest, err) || !SplitPair(rest, &d, &per, err) ||
          !ParseProbability(f, &shrink.frac, err) || !ParseDuration(d, &shrink.duration_ns, err) ||
          !ParseDuration(per, &shrink.period_ns, err)) {
        return fail();
      }
      if (shrink.frac > 0.0 &&
          (shrink.duration_ns == 0 || shrink.period_ns == 0 ||
           shrink.duration_ns > shrink.period_ns)) {
        detail = "tiershrink needs 0 < duration <= period";
        return fail();
      }
      if (shrink.frac > 0.0) {
        plan.tier_shrink[static_cast<size_t>(tier)] = shrink;
      }
    } else if (key == "swapfail") {
      std::string p, d;
      if (!SplitPair(value, &p, &d, err) || !ParseProbability(p, &plan.swap_fail_p, err) ||
          !ParseDuration(d, &plan.swap_retry_backoff_ns, err)) {
        return fail();
      }
      if (plan.swap_fail_p > 0.0 && plan.swap_retry_backoff_ns == 0) {
        detail = "swapfail needs a non-zero retry backoff";
        return fail();
      }
    } else if (key == "migratefail") {
      std::string p, d;
      if (!SplitPair(value, &p, &d, err) ||
          !ParseProbability(p, &plan.migrate_fail_p[static_cast<size_t>(host)], err) ||
          !ParseDuration(d, &plan.migrate_fail_abort_ns[static_cast<size_t>(host)], err)) {
        return fail();
      }
      if (plan.migrate_fail_p[static_cast<size_t>(host)] > 0.0 &&
          plan.migrate_fail_abort_ns[static_cast<size_t>(host)] == 0) {
        detail = "migratefail needs a non-zero abort threshold";
        return fail();
      }
    } else if (key == "hostfail") {
      std::string p, d;
      if (!SplitPair(value, &p, &d, err) ||
          !ParseProbability(p, &plan.host_fail_p[static_cast<size_t>(host)], err) ||
          !ParseDuration(d, &plan.host_fail_down_ns[static_cast<size_t>(host)], err)) {
        return fail();
      }
      if (plan.host_fail_p[static_cast<size_t>(host)] > 0.0 &&
          plan.host_fail_down_ns[static_cast<size_t>(host)] == 0) {
        detail = "hostfail needs a non-zero down duration";
        return fail();
      }
    } else {
      detail = "unknown fault key '" + key + "'";
      return fail();
    }
  }
  return plan;
}

FaultInjector::FaultInjector(const FaultPlan& plan, uint64_t seed) : plan_(plan), seed_(seed) {}

FaultInjector::VmState& FaultInjector::state(int vm) {
  DEMETER_CHECK_GE(vm, 0);
  while (vms_.size() <= static_cast<size_t>(vm)) {
    const uint64_t id = static_cast<uint64_t>(vms_.size());
    auto vm_state = std::make_unique<VmState>();
    // One independent stream per (vm, site). The key is mixed through
    // SplitMix64 before it meets the seed, so no lane sits a fixed stride
    // from another lane or from a neighbouring host's seed (cluster hosts
    // differ by SplitMix64's own increment, see HostSeed), and adding
    // sites never moves an existing lane.
    for (int s = 0; s < kNumFaultSites; ++s) {
      uint64_t key = (id << 8) | static_cast<uint64_t>(s);
      vm_state->rngs[static_cast<size_t>(s)].Seed(seed_ ^ SplitMix64(key));
    }
    vms_.push_back(std::move(vm_state));
  }
  return *vms_[static_cast<size_t>(vm)];
}

bool FaultInjector::ShouldInject(FaultSite site, int vm) {
  const double p = plan_.probability(site);
  if (p <= 0.0) {
    return false;
  }
  VmState& s = state(vm);
  if (!s.rngs[static_cast<size_t>(site)].NextBool(p)) {
    return false;
  }
  ++s.injected[static_cast<size_t>(site)];
  return true;
}

void FaultInjector::Count(FaultSite site, int vm) {
  ++state(vm).injected[static_cast<size_t>(site)];
}

bool FaultInjector::ShouldFailMigration(int host) {
  DEMETER_CHECK_GE(host, 0);
  DEMETER_CHECK_LT(host, kMaxFaultHosts);
  const double p = plan_.migrate_fail_p[static_cast<size_t>(host)];
  if (p <= 0.0) {
    return false;
  }
  // The per-host stream reuses the VmState machinery with `host` as the
  // state index — the site is cluster-scoped, so no per-VM stream exists.
  VmState& s = state(host);
  if (!s.rngs[static_cast<size_t>(FaultSite::kLiveMigrateFail)].NextBool(p)) {
    return false;
  }
  ++s.injected[static_cast<size_t>(FaultSite::kLiveMigrateFail)];
  return true;
}

Nanos FaultInjector::MigrationAbortAfter(int host) const {
  DEMETER_CHECK_GE(host, 0);
  DEMETER_CHECK_LT(host, kMaxFaultHosts);
  return plan_.migrate_fail_abort_ns[static_cast<size_t>(host)];
}

bool FaultInjector::ShouldFailHost(int host) {
  DEMETER_CHECK_GE(host, 0);
  DEMETER_CHECK_LT(host, kMaxFaultHosts);
  const double p = plan_.host_fail_p[static_cast<size_t>(host)];
  if (p <= 0.0) {
    return false;
  }
  // Like ShouldFailMigration, the per-host stream reuses the VmState
  // machinery with `host` as the state index.
  VmState& s = state(host);
  if (!s.rngs[static_cast<size_t>(FaultSite::kHostFail)].NextBool(p)) {
    return false;
  }
  ++s.injected[static_cast<size_t>(FaultSite::kHostFail)];
  return true;
}

Nanos FaultInjector::HostFailDuration(int host) const {
  DEMETER_CHECK_GE(host, 0);
  DEMETER_CHECK_LT(host, kMaxFaultHosts);
  return plan_.host_fail_down_ns[static_cast<size_t>(host)];
}

bool FaultInjector::InStallWindow(Nanos now) const {
  return InWindow(now, plan_.stall_duration_ns, plan_.stall_period_ns);
}

Nanos FaultInjector::StallWindowEnd(Nanos now) const {
  return WindowEnd(now, plan_.stall_duration_ns, plan_.stall_period_ns);
}

bool FaultInjector::InCrashWindow(Nanos now) const {
  return InWindow(now, plan_.crash_duration_ns, plan_.crash_period_ns);
}

Nanos FaultInjector::CrashWindowEnd(Nanos now) const {
  return WindowEnd(now, plan_.crash_duration_ns, plan_.crash_period_ns);
}

bool FaultInjector::InShrinkWindow(int tier, Nanos now) const {
  DEMETER_CHECK_GE(tier, 0);
  DEMETER_CHECK_LT(tier, kMaxFaultTiers);
  const TierShrink& shrink = plan_.tier_shrink[static_cast<size_t>(tier)];
  return shrink.frac > 0.0 && InWindow(now, shrink.duration_ns, shrink.period_ns);
}

Nanos FaultInjector::ShrinkWindowEnd(int tier, Nanos now) const {
  const TierShrink& shrink = plan_.tier_shrink[static_cast<size_t>(tier)];
  return WindowEnd(now, shrink.duration_ns, shrink.period_ns);
}

Nanos FaultInjector::NextShrinkWindowStart(int tier, Nanos now) const {
  DEMETER_CHECK_GE(tier, 0);
  DEMETER_CHECK_LT(tier, kMaxFaultTiers);
  const TierShrink& shrink = plan_.tier_shrink[static_cast<size_t>(tier)];
  if (shrink.frac <= 0.0 || shrink.period_ns == 0) {
    return 0;
  }
  // Window k starts at k*period for k >= 1; first start strictly after now.
  const Nanos k = now / shrink.period_ns + 1;
  return k * shrink.period_ns;
}

uint64_t FaultInjector::injected(FaultSite site, int vm) const {
  if (vm < 0 || static_cast<size_t>(vm) >= vms_.size()) {
    return 0;
  }
  return vms_[static_cast<size_t>(vm)]->injected[static_cast<size_t>(site)];
}

uint64_t FaultInjector::total_injected(FaultSite site) const {
  uint64_t total = 0;
  for (const auto& vm_state : vms_) {
    total += vm_state->injected[static_cast<size_t>(site)];
  }
  return total;
}

void FaultInjector::RegisterVmMetrics(MetricScope scope, int vm) {
  VmState& s = state(vm);
  for (int i = 0; i < kNumFaultSites; ++i) {
    scope.RegisterCounter(std::string(FaultSiteName(static_cast<FaultSite>(i))) + "_injected",
                          &s.injected[static_cast<size_t>(i)]);
  }
}

}  // namespace demeter
