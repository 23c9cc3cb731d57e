// Fleet availability under whole-host fail-stop failures.
//
// Every TMM policy runs the same fleet three ways under each placement
// policy: fault-free, under the "hostfail" schedule (even hosts fail-stop
// probabilistically per barrier while shrink windows and migratefail keep
// the migration machinery busy) with the full recovery pipeline on
// (restart queue + migration retry), and — for the flagship Demeter
// variant — the same schedule with recovery ablated (no restarts, no
// retries). The headline is fleet throughput retention versus the
// policy's own fault-free run: recovery must strictly beat the ablation
// for every placement policy, or restart/retry is dead weight.
//
// Beyond retention the bench reports the availability ledger per
// experiment — hosts failed, VMs killed / restarted / lost, transactions
// lost to fail-stops, and mean restart latency — and asserts the two HA
// conservation identities end-to-end: every migration start resolves
// exactly one way (completed + aborted + cancelled + fenced) and every
// kill resolves exactly one way (restarted + lost, with an empty queue
// once the fleet drains). After the sweep, stderr shows the process's
// resident-set high water mark (VmHWM): hosts kill and restart VMs, and a
// killed VM frees its simulator storage when it leaves its host.
//
// Fleet-specific flags (pre-filtered before the shared flag parser):
//   --fleet=VxH  V VMs across H hosts (default 32x4; --full 64x8;
//                --smoke 8x2)
//
// This bench owns its fault schedule; the generic --faults flag is
// rejected to avoid silently mixing two schedules.

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench/common.h"

namespace demeter {
namespace {

struct FaultLevel {
  const char* name;
  bool hostfail;  // Arm the fail-stop + shrink + migratefail schedule.
  bool recover;   // Restart queue + migration retries enabled.
};

constexpr FaultLevel kLevels[] = {
    {"none", false, true},
    {"hostfail", true, true},
};

// The no-recovery ablation runs only for the flagship variant: one
// counterfactual per placement policy is enough to price the pipeline.
constexpr FaultLevel kAblation = {"hostfail-norec", true, false};

constexpr PlacementPolicy kPlacements[] = {
    PlacementPolicy::kFirstFit,
    PlacementPolicy::kBestFit,
    PlacementPolicy::kSpread,
};

// Even hosts carry the whole schedule: FMEM shrink windows (driving
// evacuations off them), and the fail-stop itself. Odd hosts are the safe
// harbor — they never fail, so the restart queue always has a live
// destination and the recovery-beats-ablation comparison measures the
// pipeline, not luck.
constexpr char kShrinkSpec[] = "tiershrink=0.3/6ms/20ms@0";

// Shared (cluster-injector) plan: every host's outbound migrations abort
// with p=0.3 past 1 ms of copy work, and even hosts fail-stop with p=0.5
// per barrier, staying dark for 8 ms (4 barriers) before rejoining on
// quarantine probation. The rate is aggressive because the per-VM runs are
// short — a few dozen barriers — and the sweep's assertions need every
// hostfail experiment to actually lose a host.
std::string ClusterFaultSpec(int hosts) {
  std::string spec;
  const int armed = hosts < kMaxFaultHosts ? hosts : kMaxFaultHosts;
  for (int h = 0; h < armed; ++h) {
    if (!spec.empty()) {
      spec += ',';
    }
    spec += "migratefail=0.3/1ms@" + std::to_string(h);
    if (h % 2 == 0) {
      spec += ",hostfail=0.5/8ms@" + std::to_string(h);
    }
  }
  return spec;
}

ExperimentSpec AvailabilitySpecFor(const BenchScale& scale, const Fleet& fleet,
                                   const PolicyVariant& variant, const FaultLevel& level,
                                   PlacementPolicy placement) {
  const int vms_per_host = fleet.vms / fleet.hosts;
  ExperimentSpec spec = SpecFor(scale, "silo", variant.kind, /*num_vms=*/0, SmemKind::kPmem);
  // Survivors must absorb a whole failed host's tenants on top of their
  // own, so each host is sized for double its fair share.
  spec.config = HostFor(scale, 2 * vms_per_host);
  spec.name = std::string("avail/") + PlacementPolicyName(placement) + "/" + variant.name +
              "/" + level.name;
  spec.tag = level.name;
  spec.cluster.num_hosts = fleet.hosts;
  spec.cluster.placement = placement;
  // A 2 ms barrier pitch packs tens of control-plane rounds into the short
  // CI-sized runs, so failure, fencing, restart, and retry all land many
  // times per experiment instead of once by luck.
  spec.cluster.epoch = 2 * kMillisecond;
  // Same pre-copy cap as cluster_fleet: silo re-dirties its footprint
  // every epoch, so unbounded pre-copy would race VM completion.
  spec.cluster.migration.stop_copy_pages = 512;
  spec.cluster.migration.max_precopy_rounds = 2;
  if (level.hostfail) {
    spec.config.faults = BuiltInFaults(ClusterFaultSpec(fleet.hosts));
    spec.cluster.host_faults = {BuiltInFaults(kShrinkSpec), FaultPlan{}};
    if (level.recover) {
      spec.cluster.migration.max_retries = 3;
      spec.cluster.migration.retry_backoff_epochs = 2;
    } else {
      spec.cluster.ha.restart = false;  // Ablation: every kill is terminal.
    }
  }
  for (int v = 0; v < fleet.vms; ++v) {
    VmSetup setup = SetupFor(scale, "silo", variant.kind);
    variant.ApplyTo(setup);
    spec.vms.push_back(setup);
  }
  return spec;
}

struct Ledger {
  uint64_t hosts_failed = 0;
  uint64_t vms_killed = 0;
  uint64_t vms_restarted = 0;
  uint64_t vms_lost = 0;
  uint64_t transactions_lost = 0;
  uint64_t restart_latency_ns = 0;
  uint64_t retries = 0;
  uint64_t retries_exhausted = 0;
  // Committed transactions across the fleet — the availability headline.
  // (Per-VM tps is blind to outages: a restarted VM's clock restarts with
  // it, and a lost VM contributes zero time as well as zero work.)
  uint64_t txns = 0;
};

Ledger LedgerFor(const ExperimentResult& result) {
  Ledger ledger;
  const MetricSnapshot& host = result.host_metrics;
  ledger.hosts_failed = host.CounterValue("cluster/ha/host_failures");
  ledger.vms_killed = host.CounterValue("cluster/ha/vms_killed");
  ledger.vms_restarted = host.CounterValue("cluster/ha/vms_restarted");
  ledger.vms_lost = host.CounterValue("cluster/ha/vms_lost");
  ledger.transactions_lost = host.CounterValue("cluster/ha/transactions_lost");
  ledger.restart_latency_ns = host.CounterValue("cluster/ha/restart_latency_ns_total");
  ledger.retries = host.CounterValue("cluster/migration/retries");
  ledger.retries_exhausted = host.CounterValue("cluster/migration/retry_exhausted");
  for (const VmRunResult& vm : result.vms) {
    ledger.txns += vm.transactions;
  }
  return ledger;
}

void CheckConservation(const ExperimentResult& result) {
  const MetricSnapshot& host = result.host_metrics;
  const Ledger ledger = LedgerFor(result);
  // Every fail-stop schedule must actually land at least one failure and
  // kill at least one VM, or the sweep proves nothing.
  DEMETER_CHECK(ledger.hosts_failed >= 1)
      << result.spec.name << ": hostfail schedule never felled a host";
  DEMETER_CHECK(ledger.vms_killed >= 1)
      << result.spec.name << ": a host died with no resident VMs, ever";
  // Restart-ledger conservation at drain: the queue is empty (the fleet
  // only drains when it is), so killed == restarted + lost exactly.
  DEMETER_CHECK(host.CounterValue("cluster/ha/restart_queue_depth") == 0)
      << result.spec.name << ": restart queue not drained";
  DEMETER_CHECK(ledger.vms_killed == ledger.vms_restarted + ledger.vms_lost)
      << result.spec.name << ": restart ledger leaked (killed=" << ledger.vms_killed
      << " restarted=" << ledger.vms_restarted << " lost=" << ledger.vms_lost << ")";
  // Migration ledger with fencing: every start resolves exactly one way.
  const uint64_t started = host.CounterValue("cluster/migration/started");
  const uint64_t resolved = host.CounterValue("cluster/migration/completed") +
                            host.CounterValue("cluster/migration/aborted") +
                            host.CounterValue("cluster/migration/cancelled") +
                            host.CounterValue("cluster/migration/fenced");
  DEMETER_CHECK(started == resolved)
      << result.spec.name << ": unresolved migrations (started=" << started
      << " resolved=" << resolved << ")";
}

int Run(int argc, char** argv) {
  const auto [scale, fleet] = FleetScaleFromArgs(argc, argv, /*smoke=*/{8, 2}, /*normal=*/{32, 4},
                                                 /*full=*/{64, 8}, /*even_hosts=*/true);

  const size_t num_policies = std::size(kPolicyVariants);
  const size_t num_placements = sizeof(kPlacements) / sizeof(kPlacements[0]);
  // Per placement: every policy at both levels, plus the flagship ablation.
  const size_t per_placement = 2 * num_policies + 1;
  std::printf("Fleet availability: %zu policies x {none, hostfail} + demeter ablation, "
              "%zu placements, %d VMs on %d hosts (%zu experiments)\n\n",
              num_policies, num_placements, fleet.vms, fleet.hosts,
              num_placements * per_placement);

  std::vector<ExperimentSpec> specs;
  for (const PlacementPolicy placement : kPlacements) {
    for (const FaultLevel& level : kLevels) {
      for (const PolicyVariant& variant : kPolicyVariants) {
        specs.push_back(AvailabilitySpecFor(scale, fleet, variant, level, placement));
      }
    }
    specs.push_back(AvailabilitySpecFor(scale, fleet, kPolicyVariants[0], kAblation, placement));
  }
  const std::vector<ExperimentResult> results = RunSpecs(scale, std::move(specs));
  CheckAllOk(results);
  std::fprintf(stderr, "peak resident set after the sweep: %.1f MiB (VmHWM)\n", PeakRssMib());
  TableSink table;
  EmitResults(results, {&table});

  for (size_t pl = 0; pl < num_placements; ++pl) {
    const size_t base = pl * per_placement;
    std::printf("\n[%s] retention vs fault-free + availability ledger:\n",
                PlacementPolicyName(kPlacements[pl]));
    std::printf("  %-14s %10s %9s %7s %7s %9s %5s %5s %8s %12s\n", "policy", "retention",
                "hosts_dn", "killed", "restrt", "lost", "retry", "exhst", "txn_lost",
                "restart_ms");
    for (size_t p = 0; p < num_policies; ++p) {
      const ExperimentResult& none = results[base + p];
      const ExperimentResult& fail = results[base + num_policies + p];
      const Ledger clean = LedgerFor(none);
      const Ledger hurt = LedgerFor(fail);
      DEMETER_CHECK(clean.txns > 0) << none.spec.name << ": fault-free fleet did no work";
      CheckConservation(fail);
      const double mean_restart_ms =
          hurt.vms_restarted > 0 ? static_cast<double>(hurt.restart_latency_ns) /
                                       static_cast<double>(hurt.vms_restarted) / 1e6
                                 : 0.0;
      std::printf("  %-14s %9.1f%% %9llu %7llu %7llu %9llu %5llu %5llu %8llu %12.2f\n",
                  kPolicyVariants[p].name,
                  100.0 * static_cast<double>(hurt.txns) / static_cast<double>(clean.txns),
                  static_cast<unsigned long long>(hurt.hosts_failed),
                  static_cast<unsigned long long>(hurt.vms_killed),
                  static_cast<unsigned long long>(hurt.vms_restarted),
                  static_cast<unsigned long long>(hurt.vms_lost),
                  static_cast<unsigned long long>(hurt.retries),
                  static_cast<unsigned long long>(hurt.retries_exhausted),
                  static_cast<unsigned long long>(hurt.transactions_lost), mean_restart_ms);
      // The recovery pipeline must actually fire — a sweep where no VM
      // ever restarts is testing the fault, not the recovery.
      DEMETER_CHECK(hurt.vms_restarted >= 1)
          << fail.spec.name << ": no VM was ever restarted";
    }
    // Ablation: same schedule, recovery off. Strictly worse retention for
    // the flagship variant, or the pipeline isn't paying for itself.
    const ExperimentResult& ablated = results[base + 2 * num_policies];
    const Ledger norec = LedgerFor(ablated);
    CheckConservation(ablated);
    DEMETER_CHECK(norec.vms_restarted == 0)
        << ablated.spec.name << ": ablation restarted a VM";
    const uint64_t demeter_clean = LedgerFor(results[base]).txns;
    const uint64_t demeter_hurt = LedgerFor(results[base + num_policies]).txns;
    std::printf("  %-14s %9.1f%% %9llu %7llu %7llu %9llu %5llu %5llu %8llu %12s\n",
                "demeter-norec",
                100.0 * static_cast<double>(norec.txns) / static_cast<double>(demeter_clean),
                static_cast<unsigned long long>(norec.hosts_failed),
                static_cast<unsigned long long>(norec.vms_killed),
                static_cast<unsigned long long>(norec.vms_restarted),
                static_cast<unsigned long long>(norec.vms_lost),
                static_cast<unsigned long long>(norec.retries),
                static_cast<unsigned long long>(norec.retries_exhausted),
                static_cast<unsigned long long>(norec.transactions_lost), "-");
    DEMETER_CHECK(demeter_hurt > norec.txns)
        << PlacementPolicyName(kPlacements[pl])
        << ": recovery did not beat the no-recovery ablation (recovered=" << demeter_hurt
        << " txns committed, ablated=" << norec.txns << ")";
  }
  return 0;
}

}  // namespace
}  // namespace demeter

int main(int argc, char** argv) { return demeter::Run(argc, argv); }
