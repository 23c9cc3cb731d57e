// Multi-host fleet sweep: every TMM policy runs the same fleet — VMs placed
// across hosts by the cluster placement controller, a quarter of them
// booting late — twice: once fault-free, and once under the "evac" schedule
// where alternating hosts suffer periodic FMEM shrink windows (driving
// live-migration evacuations toward the healthy hosts) while an armed
// migratefail fault aborts a fraction of those migrations mid-copy.
//
// No paper figure spans hosts — the testbed is one machine — but the
// paper's cloud pitch ("a scalable and elastic tiered memory solution for
// virtualized cloud") is ultimately judged fleet-wide: what does a capacity
// reclaim on one host cost its tenants when they can be moved instead of
// squeezed? This bench reports, per policy, throughput retention versus the
// policy's own fault-free fleet run, plus the migration ledger (started /
// completed / aborted / cancelled, pages copied, downtime).
//
// Fleet-specific flags (pre-filtered before the shared flag parser):
//   --fleet=VxH       V VMs across H hosts (default 32x4; --full 128x8;
//                     --smoke 8x2)
//   --placement=NAME  first-fit | best-fit | spread (default first-fit)
//
// This bench owns its fault schedule; the generic --faults flag is rejected
// to avoid silently mixing two schedules.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "bench/common.h"

namespace demeter {
namespace {

struct FaultLevel {
  const char* name;
  bool evac;  // Arm the shrink + migratefail schedule.
};

constexpr FaultLevel kLevels[] = {
    {"none", false},
    {"evac", true},
};

// Alternating hosts lose 30% of FMEM for 6 ms of every 20 ms: with the
// 10 ms barrier epoch, every other barrier lands inside a shrink window, so
// the evacuation path is exercised continuously rather than by luck.
constexpr char kShrinkSpec[] = "tiershrink=0.3/6ms/20ms@0";

// Every migration leaving any host aborts with p=0.3 once its cumulative
// pre-copy work crosses 1 ms — mid-copy for anything bigger than a few
// hundred pages, so the abort exercises source-side rollback, not a
// never-started migration.
std::string MigrateFailSpec(int hosts) {
  std::string spec;
  const int armed = hosts < kMaxFaultHosts ? hosts : kMaxFaultHosts;
  for (int h = 0; h < armed; ++h) {
    if (!spec.empty()) {
      spec += ',';
    }
    spec += "migratefail=0.3/1ms@" + std::to_string(h);
  }
  return spec;
}

ExperimentSpec FleetSpecFor(const BenchScale& scale, const Fleet& fleet,
                            const PolicyVariant& variant, const FaultLevel& level,
                            PlacementPolicy placement) {
  // Each host is sized for its fair share plus one VM of slack, so the
  // healthy hosts can absorb evacuees without going straight to swap.
  const int vms_per_host = fleet.vms / fleet.hosts;
  ExperimentSpec spec = SpecFor(scale, "silo", variant.kind, /*num_vms=*/0, SmemKind::kPmem);
  spec.config = HostFor(scale, vms_per_host + 1);
  spec.name = std::string("fleet/") + variant.name + "/" + level.name;
  spec.tag = level.name;
  spec.cluster.num_hosts = fleet.hosts;
  spec.cluster.placement = placement;
  // silo re-dirties most of its footprint every epoch, so the dirty set
  // never shrinks under any threshold — cap pre-copy at two rounds (full
  // copy + one residual) or every evacuation would race the source VM's
  // completion and cancel.
  spec.cluster.migration.stop_copy_pages = 512;
  spec.cluster.migration.max_precopy_rounds = 2;
  if (level.evac) {
    // Shared plan: the cluster-level migratefail injector. Per-host plans:
    // even hosts shrink, odd hosts stay healthy (the evacuation targets).
    spec.config.faults = BuiltInFaults(MigrateFailSpec(fleet.hosts));
    spec.cluster.host_faults = {BuiltInFaults(kShrinkSpec), FaultPlan{}};
  }
  for (int v = 0; v < fleet.vms; ++v) {
    VmSetup setup = SetupFor(scale, "silo", variant.kind);
    variant.ApplyTo(setup);
    // A quarter of the fleet arrives late, staggered a barrier apart, so
    // deferred placement decides against a live (and, under "evac",
    // shrinking) load picture rather than an empty fleet.
    if (v % 4 == 3) {
      setup.boot_at = 20 * kMillisecond + static_cast<Nanos>(v / 4) * (10 * kMillisecond);
    }
    spec.vms.push_back(setup);
  }
  return spec;
}

int Run(int argc, char** argv) {
  PlacementPolicy placement = PlacementPolicy::kFirstFit;
  const auto [scale, fleet] = FleetScaleFromArgs(
      argc, argv, /*smoke=*/{8, 2}, /*normal=*/{32, 4}, /*full=*/{128, 8}, /*even_hosts=*/false,
      [&](const char* arg) {
        if (std::strncmp(arg, "--placement=", 12) != 0) {
          return false;
        }
        const std::string name = arg + 12;
        if (name != "first-fit" && name != "best-fit" && name != "spread") {
          std::fprintf(stderr, "%s: --placement needs first-fit|best-fit|spread, got '%s'\n",
                       argv[0], name.c_str());
          std::exit(2);
        }
        placement = PlacementPolicyFromName(name);
        return true;
      },
      "  --placement=P  host placement: first-fit (default), best-fit or spread\n");

  const size_t num_levels = sizeof(kLevels) / sizeof(kLevels[0]);
  const size_t num_policies = std::size(kPolicyVariants);
  std::printf("Cluster fleet: %zu policies x %zu fault levels, %d VMs on %d hosts, "
              "%s placement (%zu experiments)\n\n",
              num_policies, num_levels, fleet.vms, fleet.hosts,
              PlacementPolicyName(placement), num_policies * num_levels);

  std::vector<ExperimentSpec> specs;
  for (const FaultLevel& level : kLevels) {
    for (const PolicyVariant& variant : kPolicyVariants) {
      specs.push_back(FleetSpecFor(scale, fleet, variant, level, placement));
    }
  }
  const std::vector<ExperimentResult> results = RunSpecs(scale, std::move(specs));
  TableSink table;
  EmitResults(results, {&table});

  // Headline: fleet throughput retention under the evac schedule relative
  // to the same policy's own fault-free fleet run.
  std::printf("\nFleet throughput retention vs fault-free (higher is better):\n");
  std::printf("  %-14s %12s %12s %10s\n", "policy", "none_tps", "evac_tps", "retention");
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
    std::printf("  %-14s %12.0f %12.0f %9.1f%%\n", kPolicyVariants[p].name, tps[0], tps[1],
                tps[0] > 0.0 ? 100.0 * tps[1] / tps[0] : 0.0);
    DEMETER_CHECK(tps[0] > 0.0) << kPolicyVariants[p].name << ": fault-free fleet produced no work";
  }

  // Migration ledger: the evac schedule must actually drive evacuations,
  // and every VM either stayed put, arrived whole, or bounced back whole.
  std::printf("\nEvacuation ledger (evac level):\n");
  std::printf("  %-14s %8s %9s %8s %9s %11s %12s\n", "policy", "started", "completed",
              "aborted", "cancelled", "pages", "downtime_ms");
  for (size_t p = 0; p < num_policies; ++p) {
    const ExperimentResult& result = results[1 * num_policies + p];
    if (!result.ok) {
      std::printf("  %-14s FAILED: %s\n", kPolicyVariants[p].name, result.error.c_str());
      continue;
    }
    const MetricSnapshot& host = result.host_metrics;
    const uint64_t started = host.CounterValue("cluster/migration/started");
    const uint64_t completed = host.CounterValue("cluster/migration/completed");
    const uint64_t aborted = host.CounterValue("cluster/migration/aborted");
    const uint64_t cancelled = host.CounterValue("cluster/migration/cancelled");
    std::printf("  %-14s %8llu %9llu %8llu %9llu %11llu %12.2f\n", kPolicyVariants[p].name,
                static_cast<unsigned long long>(started),
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(aborted),
                static_cast<unsigned long long>(cancelled),
                static_cast<unsigned long long>(
                    host.CounterValue("cluster/migration/pages_copied")),
                static_cast<double>(host.CounterValue("cluster/migration/downtime_ns_total")) /
                    1e6);
    DEMETER_CHECK(started >= 1) << kPolicyVariants[p].name
                                << ": the shrink schedule never drove an evacuation";
    // The fleet drains only when no migration is in flight, so every start
    // resolved one way exactly.
    DEMETER_CHECK(started == completed + aborted + cancelled)
        << kPolicyVariants[p].name << ": unresolved migrations at end of run";
    // Every arrival must be accounted by a VM-side migrated_in counter.
    // Sum over every slot in the fleet snapshot, not just final locations:
    // a VM evacuated twice leaves its first arrival on an intermediate
    // slot it has since migrated out of.
    uint64_t arrivals = 0;
    for (const MetricSample& m : host.samples()) {
      constexpr std::string_view kSuffix = "lifecycle/migrated_in";
      if (m.name.size() > kSuffix.size() &&
          m.name.compare(m.name.size() - kSuffix.size(), kSuffix.size(), kSuffix) == 0) {
        arrivals += m.counter;
      }
    }
    DEMETER_CHECK(arrivals == completed)
        << kPolicyVariants[p].name << ": " << completed << " completed migrations but " << arrivals
        << " VM arrivals";
  }

  // Fleet-accounting cross-check, every level: each spec VM ran to its
  // target exactly once, wherever it ended up.
  for (const ExperimentResult& result : results) {
    if (!result.ok) {
      continue;
    }
    for (size_t v = 0; v < result.vms.size(); ++v) {
      DEMETER_CHECK(result.vms[v].transactions >=
                    result.spec.vms[v].target_transactions)
          << result.spec.name << " vm " << v << " fell short of its target";
    }
  }
  return 0;
}

}  // namespace
}  // namespace demeter

int main(int argc, char** argv) { return demeter::Run(argc, argv); }
