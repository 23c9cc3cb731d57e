// FMEM overcommit sweep: every TMM policy runs the same multi-VM workload
// on a three-tier host (FMEM / PMem / zswap far tier) whose FMEM shrinks
// with the overcommit ratio R — at R=1.0 each VM's fast-node demand fits,
// at R=2.0 the host provisions half of it. The overcommit scheduler
// arbitrates the shortfall through the double balloon where the guest
// engine supports it (Demeter); everyone else spills page-by-page through
// the PopulateEpt fallback chain into SMEM and, when SMEM is also tight,
// the far swap tier.
//
// The sweep reports throughput and p99 transaction latency against R, plus
// the far-tier traffic (writebacks, swap-ins, in-flight-buffer hits) and
// the scheduler's arbitration work. Each configuration also runs under a
// swapfail schedule (transient device I/O errors with retry/backoff) to
// show the far tier degrading, not collapsing, when the device misbehaves.
//
// Guard rails baked into the bench: at R=1.0 fault-free the third tier must
// be completely inert (zero stores, zero swap-served accesses) for every
// policy — overcommit pressure, not the tier's existence, is what pushes
// pages to the device. One VM departs mid-run in every experiment so slot
// reclaim on VM teardown is exercised across the whole matrix (visible to
// --check invariant audits).
//
// This bench owns its fault schedule; the generic --faults flag is rejected
// here to avoid silently mixing two schedules.

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/base/histogram.h"

namespace demeter {
namespace {

struct FaultLevel {
  const char* name;
  const char* spec;
};

// The swapfail level makes 30% of device operations fail transiently with a
// 1 ms retry backoff — heavy enough that retries show up in every pressured
// cell, transient enough that no data is ever lost.
constexpr FaultLevel kLevels[] = {
    {"none", ""},
    {"swapfail", "swapfail=0.3/1ms"},
};

constexpr double kRatios[] = {1.0, 1.25, 1.5, 2.0};

// Three-tier host sized for the sweep. FMEM carries the standard 25%
// headroom at R=1.0 and shrinks as 1/R; SMEM is deliberately tighter than
// the benches' usual 2x so overcommit spill actually reaches the far tier
// at high R instead of vanishing into slack PMem; the far tier itself is
// ample (a swap device never runs out before the experiment does).
MachineConfig OvercommitHostFor(const BenchScale& scale, int num_vms, double ratio) {
  MachineConfig config = HostFor(scale, num_vms, SmemKind::kPmem);
  const uint64_t n = static_cast<uint64_t>(num_vms);
  const double demand = static_cast<double>(scale.vm_bytes * n) * 0.2 * 1.25;
  config.tiers[0] = TierSpec::LocalDram(PageCeil(static_cast<uint64_t>(demand / ratio)));
  config.tiers[1] =
      TierSpec::Pmem(PageCeil(static_cast<uint64_t>(static_cast<double>(scale.vm_bytes * n) * 0.55)));
  config.tiers.push_back(TierSpec::Zswap(scale.vm_bytes * n));
  config.overcommit.enabled = true;
  return config;
}

int Run(int argc, char** argv) {
  const BenchScale scale =
      BenchScale::FromArgs(argc, argv, BenchKind::kRunner, /*owns_faults=*/true);
  const size_t num_levels = sizeof(kLevels) / sizeof(kLevels[0]);
  const size_t num_ratios = sizeof(kRatios) / sizeof(kRatios[0]);
  const size_t num_policies = std::size(kPolicyVariants);
  const int vms = scale.concurrent_vms;

  std::printf("Overcommit sweep: %zu policies x %zu ratios x %zu fault levels, %d VMs "
              "with mid-run departure (%zu experiments)\n\n",
              num_policies, num_ratios, num_levels, vms,
              num_policies * num_ratios * num_levels);

  std::vector<ExperimentSpec> specs;
  for (const FaultLevel& level : kLevels) {
    const FaultPlan plan = BuiltInFaults(level.spec);
    for (const double ratio : kRatios) {
      for (const PolicyVariant& variant : kPolicyVariants) {
        // silo: drifting hotspot, so what lands in the far tier is not
        // permanently cold — hot swap-ins and level-skip promotions matter.
        ExperimentSpec spec = SpecFor(scale, "silo", variant.kind, vms, SmemKind::kPmem);
        char tag[32];
        std::snprintf(tag, sizeof(tag), "r%.2f", ratio);
        spec.name = std::string("silo/") + variant.name + "/" + tag + "/" + level.name;
        spec.tag = tag;
        spec.config = OvercommitHostFor(scale, vms, ratio);
        spec.config.faults = plan;
        // Only the Demeter variants wire a double balloon, so only they can
        // answer the scheduler's spill requests; the others show what
        // unarbitrated spill costs.
        for (VmSetup& setup : spec.vms) {
          variant.ApplyTo(setup);
        }
        // One VM finishes at half the target and departs: its far-tier
        // slots must be reclaimed with its frames (ReclaimVm), and the
        // survivors inherit the freed capacity mid-run.
        spec.vms.back().target_transactions = scale.transactions / 2;
        spec.vms.back().depart_on_finish = true;
        specs.push_back(std::move(spec));
      }
    }
  }
  const std::vector<ExperimentResult> results = RunSpecs(scale, std::move(specs));
  TableSink table;
  EmitResults(results, {&table});

  // Headline: throughput and tail latency against the overcommit ratio,
  // with the far-tier and arbitration work that explains them.
  for (size_t l = 0; l < num_levels; ++l) {
    std::printf("\n[%s] throughput / p99 vs overcommit ratio:\n", kLevels[l].name);
    std::printf("  %-14s %6s %10s %9s %9s %9s %9s %8s %8s\n", "policy", "ratio", "tps",
                "p99_us", "swap_out", "swap_in", "inflight", "retries", "spills");
    for (size_t p = 0; p < num_policies; ++p) {
      for (size_t r = 0; r < num_ratios; ++r) {
        const size_t idx = (l * num_ratios + r) * num_policies + p;
        const ExperimentResult& result = results[idx];
        if (!result.ok) {
          std::printf("  %-14s %6.2f FAILED: %s\n", kPolicyVariants[p].name, kRatios[r],
                      result.error.c_str());
          continue;
        }
        double tps = 0.0;
        Histogram merged;
        for (const VmRunResult& vm : result.vms) {
          tps += vm.ThroughputTps();
          merged.Merge(vm.txn_latency_ns);
        }
        const MetricSnapshot& host = result.host_metrics;
        const uint64_t stores = host.CounterValue("swap/stores");
        const uint64_t loads = host.CounterValue("swap/loads");
        std::printf("  %-14s %6.2f %10.0f %9.1f %9llu %9llu %9llu %8llu %8llu\n",
                    kPolicyVariants[p].name, kRatios[r], tps,
                    static_cast<double>(merged.Percentile(99)) / 1000.0,
                    static_cast<unsigned long long>(stores),
                    static_cast<unsigned long long>(loads),
                    static_cast<unsigned long long>(host.CounterValue("swap/inflight_hits")),
                    static_cast<unsigned long long>(host.CounterValue("swap/retries")),
                    static_cast<unsigned long long>(
                        host.CounterValue("overcommit/spill_requests")));
        // At R=1.0 every VM's fast-node demand fits under the provisioned
        // headroom: the third tier must be completely inert — its mere
        // existence (and the swapfail schedule aimed at it) must not move a
        // single page through the device.
        if (kRatios[r] == 1.0) {
          DEMETER_CHECK(stores == 0 && loads == 0)
              << result.spec.name << ": far tier not inert at ratio 1.0 (stores=" << stores
              << ", loads=" << loads << ")";
          uint64_t swap_served = 0;
          for (const VmRunResult& vm : result.vms) {
            swap_served += vm.metrics.CounterValue("stats/swap_accesses");
          }
          DEMETER_CHECK(swap_served == 0)
              << result.spec.name << ": " << swap_served
              << " accesses served from the far tier at ratio 1.0";
        }
      }
    }
  }

  // Slot hygiene across the whole matrix: every writeback got a slot, every
  // slot left through a swap-in or a drop (VM departure reclaim), and
  // nothing is left behind beyond what the final placement still backs.
  std::printf("\nSlot accounting (whole sweep): every store is matched by a load, a "
              "drop, or a still-resident page.\n");
  for (const ExperimentResult& result : results) {
    if (!result.ok) {
      continue;
    }
    const MetricSnapshot& host = result.host_metrics;
    const uint64_t stores = host.CounterValue("swap/stores");
    const uint64_t loads = host.CounterValue("swap/loads");
    const uint64_t drops = host.CounterValue("swap/drops");
    const uint64_t active = host.CounterValue("swap/active_slots");
    DEMETER_CHECK(stores == loads + drops + active)
        << result.spec.name << ": slot flow does not balance (stores=" << stores
        << ", loads=" << loads << ", drops=" << drops << ", active=" << active << ")";
  }
  return 0;
}

}  // namespace
}  // namespace demeter

int main(int argc, char** argv) { return demeter::Run(argc, argv); }
