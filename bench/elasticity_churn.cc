// Elastic-host resilience sweep: every TMM policy runs the same mid-run
// lifecycle churn (one VM departs when it finishes, one boots late) twice —
// once fault-free and once under the combined "elastic" schedule that layers
// hwpoison memory errors, periodic FMEM capacity shrink windows, and guest
// engine crash windows on top of the churn.
//
// No paper figure covers host elasticity events — the testbed never pulls
// DIMMs mid-run — but a cloud substrate is judged by what a machine-check
// or a capacity reclaim does to tenants. This bench reports, per policy,
// throughput retention (vs. its own fault-free churn run), pages lost to
// SIGBUS discards, clean MCE recoveries, and the shrink engine's eviction
// work, including the no-fallback ablation ("demeter-nofb") that shows what
// the host-side watchdog is worth when the guest engine is down during a
// shrink window. After the sweep, stderr shows the process's resident-set
// high water mark (VmHWM).
//
// This bench owns its fault schedule; the generic --faults flag is rejected
// here to avoid silently mixing two schedules.

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench/common.h"

namespace demeter {
namespace {

struct FaultLevel {
  const char* name;
  const char* spec;
};

// The combined elastic schedule. Poison probabilities are per memory access
// to a tier, so even 2e-4 retires hundreds of frames over a run; the shrink
// window carves 30% of FMEM for 3 ms of every 12 ms; the crash window takes
// the guest engine down for 90 ms of every 100 ms — a real outage (45
// straight epochs), not a hiccup. Short crash windows make the host
// fallback a net loss: its promotions land right before the next shrink
// window evicts them, while the guest engine would have recovered anyway.
// Long outages are precisely when delegation needs a host-side net.
constexpr FaultLevel kLevels[] = {
    {"none", ""},
    {"elastic",
     "crash=90ms/100ms,poison=0.0002@0,poison=0.0001@1,tiershrink=0.3/3ms/12ms@0"},
};

constexpr Nanos kEpoch = 2 * kMillisecond;

int Run(int argc, char** argv) {
  BenchScale scale = BenchScale::FromArgs(argc, argv, BenchKind::kRunner, /*owns_faults=*/true);
  // Span many shrink and crash windows per run.
  scale.transactions *= 2;
  scale.demeter_epoch = kEpoch;
  const size_t num_levels = sizeof(kLevels) / sizeof(kLevels[0]);
  const size_t num_policies = std::size(kPolicyVariants);
  constexpr int kVms = 3;

  std::printf("Elasticity churn: %zu policies x %zu fault levels, %d VMs with "
              "mid-run departure + deferred boot (%zu experiments)\n\n",
              num_policies, num_levels, kVms, num_policies * num_levels);

  std::vector<ExperimentSpec> specs;
  for (const FaultLevel& level : kLevels) {
    const FaultPlan plan = BuiltInFaults(level.spec);
    for (const PolicyVariant& variant : kPolicyVariants) {
      // silo: drifting hotspot, so both a departed VM's reclaimed FMEM and
      // a late joiner's cold start matter to the survivors' placement.
      ExperimentSpec spec = SpecFor(scale, "silo", variant.kind, kVms, SmemKind::kPmem);
      spec.name = std::string("silo/") + variant.name + "/" + level.name;
      spec.tag = level.name;
      spec.config.faults = plan;
      for (VmSetup& setup : spec.vms) {
        variant.ApplyTo(setup);
        // Degrade only on real outages: the threshold sits far below the
        // 90 ms crash windows but above transient scheduling hiccups (see
        // fault_resilience.cc for the tuning rationale; here outages and
        // shrink windows overlap, which is the point of the exercise).
        setup.demeter.degradation.unresponsive_after = 6 * kEpoch;
        setup.demeter.degradation.watchdog_period = kEpoch;
        setup.demeter.degradation.host_round_period = kEpoch;
        setup.demeter.degradation.host_batch_pages = 64;
      }
      // Lifecycle churn: VM 1 finishes at half the target and departs (its
      // memory must be fully reclaimed mid-run); VM 2 boots 30 ms late into
      // whatever capacity the others left behind.
      spec.vms[1].target_transactions = scale.transactions / 2;
      spec.vms[1].depart_on_finish = true;
      spec.vms[2].boot_at = 30 * kMillisecond;
      spec.vms[2].target_transactions = (scale.transactions * 3) / 4;
      specs.push_back(std::move(spec));
    }
  }
  const std::vector<ExperimentResult> results = RunSpecs(scale, std::move(specs));
  std::fprintf(stderr, "peak resident set after the sweep: %.1f MiB (VmHWM)\n", PeakRssMib());
  TableSink table;
  EmitResults(results, {&table});

  // Headline: throughput retention under the elastic schedule relative to
  // the same policy's own fault-free churn run.
  std::printf("\nThroughput retention vs fault-free churn (higher is better):\n");
  std::printf("  %-14s %10s %10s %10s\n", "policy", "none_tps", "elastic", "retention");
  for (size_t p = 0; p < num_policies; ++p) {
    double tps[2] = {0.0, 0.0};
    for (size_t l = 0; l < num_levels; ++l) {
      const ExperimentResult& result = results[l * num_policies + p];
      if (result.ok) {
        for (const VmRunResult& vm : result.vms) {
          tps[l] += vm.ThroughputTps();
        }
      }
    }
    std::printf("  %-14s %10.0f %10.0f %9.1f%%\n", kPolicyVariants[p].name, tps[0], tps[1],
                tps[0] > 0.0 ? 100.0 * tps[1] / tps[0] : 0.0);
  }

  // Host damage report: what the elastic schedule actually did, and proof
  // the containment tripwire never fired (a poisoned frame handed out as a
  // migration destination would be a correctness bug, not a fault).
  std::printf("\nElastic-schedule damage (host side):\n");
  std::printf("  %-14s %8s %8s %8s %8s %9s %9s %9s\n", "policy", "mce", "clean", "sigbus",
              "lost", "shrink_w", "evicted", "backpr");
  for (size_t p = 0; p < num_policies; ++p) {
    const ExperimentResult& result = results[1 * num_policies + p];
    if (!result.ok) {
      std::printf("  %-14s FAILED: %s\n", kPolicyVariants[p].name, result.error.c_str());
      continue;
    }
    const MetricSnapshot& host = result.host_metrics;
    DEMETER_CHECK(host.CounterValue("poison/bad_destination") == 0)
        << kPolicyVariants[p].name << ": poisoned frame selected as migration destination";
    std::printf("  %-14s %8llu %8llu %8llu %8llu %9llu %9llu %9llu\n", kPolicyVariants[p].name,
                static_cast<unsigned long long>(host.CounterValue("poison/events")),
                static_cast<unsigned long long>(host.CounterValue("poison/clean_recoveries")),
                static_cast<unsigned long long>(host.CounterValue("poison/sigbus_deliveries")),
                static_cast<unsigned long long>(host.CounterValue("poison/pages_lost")),
                static_cast<unsigned long long>(host.CounterValue("tier0/shrink_windows")),
                static_cast<unsigned long long>(host.CounterValue("tier0/shrink_evictions")),
                static_cast<unsigned long long>(host.CounterValue("tier0/shrink_backpressure")));
  }

  // Lifecycle accounting: the departure and the deferred boot must have
  // happened in every experiment, faulted or not.
  std::printf("\nLifecycle churn (per run: departures / deferred boots):\n");
  for (size_t l = 0; l < num_levels; ++l) {
    for (size_t p = 0; p < num_policies; ++p) {
      const ExperimentResult& result = results[l * num_policies + p];
      if (!result.ok) {
        continue;
      }
      uint64_t departures = 0;
      uint64_t boots = 0;
      for (const VmRunResult& vm : result.vms) {
        departures += vm.metrics.CounterValue("lifecycle/departures");
        boots += vm.metrics.CounterValue("lifecycle/boots");
      }
      std::printf("  %-30s %llu departed, %llu booted\n", result.spec.name.c_str(),
                  static_cast<unsigned long long>(departures),
                  static_cast<unsigned long long>(boots));
      DEMETER_CHECK(departures == 1) << result.spec.name << ": expected exactly one departure";
      DEMETER_CHECK(boots == static_cast<uint64_t>(kVms))
          << result.spec.name << ": every VM must boot exactly once";
    }
  }
  return 0;
}

}  // namespace
}  // namespace demeter

int main(int argc, char** argv) { return demeter::Run(argc, argv); }
