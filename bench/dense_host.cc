// Dense single-host tenancy sweep: one Machine carrying 16 / 64 / 256 small
// VMs (4 / 8 / 16 under --smoke), the consolidation regime of the paper's
// many-VMs-per-host claim. Each tenant count runs once.
//
// The tenant mix is deliberately churny: policies alternate between Demeter
// and TPP, every eighth VM boots deferred, and every fifth departs as soon
// as it hits its target — so the machine's active set changes constantly
// while the run is in flight (boots and departures under load, not just at
// start). The headline table on stdout reports per-count aggregate
// throughput. The host-side wall clock and its growth ratio between
// consecutive tenant counts go to stderr, because they differ from run to
// run and stdout stays byte-identical: a dense host must scale ~linearly
// in N, not quadratically. The smallest count's simulator state fits in
// last-level cache, so the first ratio reads high (a cache-regime
// transition, not algorithmic growth); the 64->256 ratio is the honest
// scaling signal. Next to it stderr shows the process's resident-set high
// water mark (VmHWM) read after each count, and that mark per tenant:
// counts run in ascending order, so each mark is that count's peak.
//
// This bench owns its churn pattern; the generic --faults flag composes
// fine and is accepted.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#if defined(__GLIBC__) || defined(__linux__)
#include <malloc.h>
#endif

#include "bench/common.h"

namespace demeter {
namespace {

constexpr int kFullCounts[] = {16, 64, 256};
constexpr int kSmokeCounts[] = {4, 8, 16};

ExperimentSpec DenseSpec(const BenchScale& scale, int num_vms, uint64_t transactions,
                         double bw_scale) {
  ExperimentSpec spec;
  spec.name = "dense/" + std::to_string(num_vms) + "vms";
  spec.tag = std::to_string(num_vms) + "vms";
  spec.config = HostFor(scale, num_vms, SmemKind::kPmem);
  // A host consolidating 4x the tenants is a bigger box (more channels /
  // sockets), not the same box run hotter: HostFor already scales tier
  // *capacity* with N, and this scales tier *bandwidth* the same way, so
  // the per-tenant bandwidth share is constant across the sweep. Without
  // it the M/M/1 queueing model saturates at the utilization cap, simulated
  // time stretches, and the wall-clock column measures saturation physics
  // instead of how the simulator itself scales with N.
  for (TierSpec& tier : spec.config.tiers) {
    tier.read_bw_mbps *= bw_scale;
    tier.write_bw_mbps *= bw_scale;
  }
  for (int v = 0; v < num_vms; ++v) {
    VmSetup setup = SetupFor(scale, "gups", v % 2 == 0 ? PolicyKind::kDemeter : PolicyKind::kTpp);
    setup.target_transactions = transactions;
    if (v % 2 == 0) {
      setup.provision = ProvisionMode::kDemeterBalloon;
    }
    // Lifecycle churn at density: deferred boots land mid-run (staggered so
    // they do not all arrive at one horizon) and early finishers tear down
    // while their neighbours keep running.
    if (v % 8 == 7) {
      setup.boot_at = 5 * kMillisecond * static_cast<Nanos>(1 + v % 4);
    }
    if (v % 5 == 4) {
      setup.depart_on_finish = true;
    }
    spec.vms.push_back(setup);
  }
  return spec;
}

int Run(int argc, char** argv) {
  const BenchScale scale = BenchScale::FromArgs(argc, argv);
  const int* counts = scale.smoke ? kSmokeCounts : kFullCounts;
  const size_t num_counts =
      scale.smoke ? sizeof(kSmokeCounts) / sizeof(int) : sizeof(kFullCounts) / sizeof(int);
  // Dense tenants are small: divide the per-VM target so total work grows
  // with N at a rate a single host can actually carry.
  const uint64_t transactions = scale.smoke ? scale.transactions : scale.transactions / 8;

  std::printf("Dense host sweep: %zu tenant counts, churny mix (deferred boots + departures)\n\n",
              num_counts);

  std::vector<ExperimentResult> results;
  std::vector<double> wall_s(num_counts, 0.0);
  std::vector<double> hwm_mib(num_counts, 0.0);
  for (size_t c = 0; c < num_counts; ++c) {
    const int vms = counts[c];
#if defined(__GLIBC__) || defined(__linux__)
    // The wall-clock report compares counts: give each one a clean heap so
    // fragmentation left by the previous (smaller) count's teardown does
    // not tax the bigger run and skew the scaling ratio.
    malloc_trim(0);
#endif
    const double bw_scale = static_cast<double>(vms) / static_cast<double>(counts[0]);
    // One runner per count, run in turn, so each wall time is one count's.
    ExperimentRunner runner(RunnerOptionsFor(scale));
    runner.Submit(DenseSpec(scale, vms, transactions, bw_scale));
    const auto start = std::chrono::steady_clock::now();
    std::vector<ExperimentResult> run = runner.RunAll();
    wall_s[c] = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    hwm_mib[c] = PeakRssMib();
    DEMETER_CHECK_EQ(run.size(), 1u);
    DEMETER_CHECK(run[0].ok) << run[0].spec.name << ": " << run[0].error;
    for (const VmRunResult& vm : run[0].vms) {
      DEMETER_CHECK_GE(vm.transactions, transactions) << run[0].spec.name;
    }
    results.push_back(std::move(run[0]));
  }

  WriteOutputs(scale, results);
  TableSink table;
  EmitResults(results, {&table});

  std::printf("\nScaling (aggregate throughput vs tenant count):\n");
  std::printf("  %6s %12s %12s\n", "vms", "agg_tps", "mean_tps/vm");
  std::fprintf(stderr, "\nHost wall clock and peak resident set vs tenant count:\n");
  std::fprintf(stderr, "  %6s %10s %24s %10s %10s\n", "vms", "wall_s", "wall_ratio", "hwm_mib",
               "mib/vm");
  for (size_t c = 0; c < num_counts; ++c) {
    double tps = 0.0;
    for (const VmRunResult& vm : results[c].vms) {
      tps += vm.ThroughputTps();
    }
    std::printf("  %6d %12.0f %12.0f\n", counts[c], tps, tps / counts[c]);
    const double wall = wall_s[c];
    const double prev_wall = c > 0 ? wall_s[c - 1] : 0.0;
    char ratio[64] = "-";
    if (c > 0 && prev_wall > 0.0) {
      std::snprintf(ratio, sizeof(ratio), "%.2fx (vs %.0fx VMs)", wall / prev_wall,
                    static_cast<double>(counts[c]) / static_cast<double>(counts[c - 1]));
    }
    std::fprintf(stderr, "  %6d %10.2f %24s %10.1f %10.3f\n", counts[c], wall, ratio,
                 hwm_mib[c], hwm_mib[c] / counts[c]);
  }
  return 0;
}

}  // namespace
}  // namespace demeter

int main(int argc, char** argv) { return demeter::Run(argc, argv); }
