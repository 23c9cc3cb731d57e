// Fault-resilience sweep: fault intensity x TMM policy x slow-memory kind,
// every VM provisioned through the Demeter double balloon so the balloon
// retry/timeout machinery and the Demeter degradation fallback are both on
// the critical path.
//
// No paper figure covers faults — the testbed hosts never crash on cue —
// but an elastic cloud substrate is judged by how it behaves when guests
// stall, virtqueues fill, and migrations abort. This bench reports, per
// fault level, each policy's throughput retention (vs. its own fault-free
// run) and the Demeter degradation/recovery counters, including the
// no-fallback ablation ("demeter-nofb": DegradationConfig{enabled=false})
// that shows what the watchdog is worth.
//
// This bench sweeps its own fault schedule; the generic --faults flag is
// rejected here to avoid silently mixing two schedules.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"

namespace demeter {
namespace {

struct FaultLevel {
  const char* name;
  const char* spec;
};

// Escalating schedules. The "high" level crashes the guest engine for
// 90 ms of every 100 ms — 45 straight epochs lost per window. Silo's
// hotspot drifts ~5% of the keyspace per ~12 ms, so without the host
// fallback each outage leaves placement several full hot-set rotations
// stale before the guest engine returns.
constexpr FaultLevel kLevels[] = {
    {"none", ""},
    {"low", "bdelay=0.1/200us,bdrop=0.05,pebsdrop=0.1,migfail=0.05"},
    {"mid", "bdrop=0.2,stall=5ms/25ms,pebsdrop=0.25,migfail=0.1,vqcap=8"},
    {"high",
     "bdrop=0.5,stall=10ms/40ms,crash=90ms/100ms,pebsdrop=0.5,migfail=0.25,tierex=0.1,vqcap=4"},
};

// Epoch sized so smoke runs still span many epochs (and therefore many
// fault windows). Degradation thresholds relative to it are set per-VM
// below, where the tuning rationale lives.
constexpr Nanos kEpoch = 2 * kMillisecond;

// Every VM boots through the Demeter double balloon, whatever its policy.
constexpr PolicyVariant kPolicies[] = {
    {"demeter", PolicyKind::kDemeter, ProvisionMode::kDemeterBalloon, true},
    {"demeter-nofb", PolicyKind::kDemeter, ProvisionMode::kDemeterBalloon, false},
    {"tpp", PolicyKind::kTpp, ProvisionMode::kDemeterBalloon},
    {"memtis", PolicyKind::kMemtis, ProvisionMode::kDemeterBalloon},
    {"nomad", PolicyKind::kNomad, ProvisionMode::kDemeterBalloon},
};

int Run(int argc, char** argv) {
  BenchScale scale = BenchScale::FromArgs(argc, argv, BenchKind::kRunner, /*owns_faults=*/true);
  // Longer runs than the other benches: each run must span many stall and
  // crash windows for degradation/recovery cycles to show up.
  scale.transactions *= 2;
  scale.demeter_epoch = kEpoch;
  const std::vector<SmemKind> smem_kinds = {SmemKind::kPmem, SmemKind::kCxl};
  const size_t num_levels = sizeof(kLevels) / sizeof(kLevels[0]);
  const size_t num_policies = sizeof(kPolicies) / sizeof(kPolicies[0]);

  std::printf("Fault resilience: %zu fault levels x %zu policies x %zu slow tiers "
              "(%zu experiments)\n\n",
              num_levels, num_policies, smem_kinds.size(),
              num_levels * num_policies * smem_kinds.size());

  std::vector<ExperimentSpec> specs;
  for (const FaultLevel& level : kLevels) {
    const FaultPlan plan = BuiltInFaults(level.spec);
    for (SmemKind smem : smem_kinds) {
      for (const PolicyVariant& variant : kPolicies) {
        // silo: YCSB with a drifting hotspot, so a guest engine that loses
        // epochs leaves placement stale — exactly what the host fallback is
        // for (a static-hotspot workload would mask the difference).
        ExperimentSpec spec = SpecFor(scale, "silo", variant.kind, scale.concurrent_vms, smem);
        spec.name = std::string("silo/") + variant.name + "/" + SmemKindName(smem) + "/" +
                    level.name;
        spec.tag = level.name;
        spec.config.faults = plan;
        for (VmSetup& setup : spec.vms) {
          variant.ApplyTo(setup);
          // Degrade only on real outages: the threshold sits above the
          // 10 ms stall windows (transient hiccups the guest absorbs on
          // its own) but far below the 450 ms crash windows. Degrading on
          // every stall would be actively harmful — each host round
          // consumes the PEBS channel, so a guest that recovers moments
          // later runs its next epoch on a starved range tree.
          setup.demeter.degradation.unresponsive_after = 6 * kEpoch;
          setup.demeter.degradation.watchdog_period = kEpoch;
          // Host rounds at the guest's own epoch cadence: silo's hotspot
          // drifts continuously, so a slower fallback promotes pages that
          // have already cooled by the time they land in FMEM.
          setup.demeter.degradation.host_round_period = kEpoch;
          // Batch sized to silo's drift rate (~45 newly-hot pages per
          // epoch): promoting more just churns pages the drift will cool
          // moments later, and every extra migration is a page copy that
          // congests the slow tier the workload is reading from.
          setup.demeter.degradation.host_batch_pages = 64;
        }
        specs.push_back(std::move(spec));
      }
    }
  }
  const std::vector<ExperimentResult> results = RunSpecs(scale, std::move(specs));
  TableSink table;
  EmitResults(results, {&table});

  // Headline: per (policy, tier), throughput retention at each fault level
  // relative to that policy's own fault-free run, plus Demeter's recovery
  // behaviour (time degraded and host-side migrations while degraded).
  std::printf("\nThroughput retention vs fault-free (higher is better):\n");
  std::printf("  %-14s %-5s", "policy", "smem");
  for (const FaultLevel& level : kLevels) {
    std::printf(" %9s", level.name);
  }
  std::printf("\n");
  // Submission order: level-major, then smem, then policy.
  const size_t per_level = smem_kinds.size() * num_policies;
  for (size_t p = 0; p < num_policies; ++p) {
    for (size_t s = 0; s < smem_kinds.size(); ++s) {
      std::printf("  %-14s %-5s", kPolicies[p].name, SmemKindName(smem_kinds[s]));
      double baseline = 0.0;
      for (size_t l = 0; l < num_levels; ++l) {
        const ExperimentResult& result = results[l * per_level + s * num_policies + p];
        double tps = 0.0;
        if (result.ok) {
          for (const VmRunResult& vm : result.vms) {
            tps += vm.ThroughputTps();
          }
        }
        if (l == 0) {
          baseline = tps;
          std::printf(" %8.0f ", tps);
        } else {
          std::printf(" %8.1f%%", baseline > 0.0 ? 100.0 * tps / baseline : 0.0);
        }
      }
      std::printf("\n");
    }
  }

  std::printf("\nDemeter degradation behaviour (summed over VMs):\n");
  std::printf("  %-14s %-5s %-5s %10s %10s %12s %10s\n", "policy", "smem", "level", "entries",
              "recovered", "degraded_ms", "host_migr");
  for (size_t l = 1; l < num_levels; ++l) {
    for (size_t s = 0; s < smem_kinds.size(); ++s) {
      for (size_t p = 0; p < num_policies; ++p) {
        if (kPolicies[p].kind != PolicyKind::kDemeter) {
          continue;
        }
        const ExperimentResult& result = results[l * per_level + s * num_policies + p];
        uint64_t entries = 0, recoveries = 0, degraded_ns = 0, host_migrations = 0;
        if (result.ok) {
          for (const VmRunResult& vm : result.vms) {
            entries += vm.metrics.CounterValue("policy/degraded_entries");
            recoveries += vm.metrics.CounterValue("policy/recoveries");
            degraded_ns += vm.metrics.CounterValue("policy/degraded_ns");
            host_migrations += vm.metrics.CounterValue("policy/host_migrations");
          }
        }
        std::printf("  %-14s %-5s %-5s %10llu %10llu %12.1f %10llu\n", kPolicies[p].name,
                    SmemKindName(smem_kinds[s]), kLevels[l].name,
                    static_cast<unsigned long long>(entries),
                    static_cast<unsigned long long>(recoveries),
                    static_cast<double>(degraded_ns) / 1e6,
                    static_cast<unsigned long long>(host_migrations));
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace demeter

int main(int argc, char** argv) { return demeter::Run(argc, argv); }
