// Shared configuration and plumbing for the paper-reproduction bench binaries.
//
// The paper's testbed runs 16 GiB VMs with 4 vCPUs on a 36-core dual-socket
// host; this simulation runs on one core, so every bench uses a scaled-down
// geometry that preserves the paper's *ratios*: FMEM:total = 1:5, footprint
// close to VM capacity, hot-set fractions, and epoch:run-length proportions.
//
// Every bench except fig4_locality_heatmap, table2_latency_matrix and
// ext_qos_guest_schemes describes its simulations as ExperimentSpecs and
// runs them with RunSpecs, through the ExperimentRunner. Those three probe
// or steer one live Machine by hand, so they have no experiments to spread
// over workers or to write out.
//
// Flags accepted by every bench (unknown flags are rejected with a usage
// message):
//   --full        larger (slower) configuration closer to paper scale
//   --smoke       tiny configuration for CI smoke runs (seconds, not minutes);
//                 it checks flags, determinism and pinned counters, and ends
//                 too early for the baseline policies to migrate a page
//   --faults=SPEC inject the given fault schedule into every machine
//                 (see FaultPlan::Parse for the SPEC grammar); benches that
//                 sweep their own fault schedules reject it
//   --check       audit cross-layer invariants during every run (abort on
//                 violation); observability-only, results are unchanged
//   --help        print usage and exit
// and by every bench that runs through the runner:
//   --jobs=N      worker threads (default: all cores; never more than the
//                 bench has experiments)
//   --out=FILE    also write results as JSON lines to FILE
//   --trace=FILE  write a Chrome trace_event JSON trace of every run to FILE
// The hand-driven benches reject these flags with exit 2 before opening
// anything. Stdout, --out and --trace are byte-identical across --jobs
// values.

#ifndef DEMETER_BENCH_COMMON_H_
#define DEMETER_BENCH_COMMON_H_

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/base/logging.h"
#include "src/base/stats.h"
#include "src/fault/fault.h"
#include "src/harness/table.h"
#include "src/runner/result_sink.h"
#include "src/runner/runner.h"

namespace demeter {

// How a bench runs its experiments: as ExperimentSpecs through the
// ExperimentRunner (which --jobs, --out and --trace drive), or by driving
// one Machine by hand.
enum class BenchKind { kRunner, kDirect };

struct BenchScale {
  uint64_t vm_bytes = 32 * kMiB;
  double footprint_ratio = 0.75;  // Footprint relative to VM memory.
  uint64_t transactions = 800000;
  int vcpus = 2;
  Nanos demeter_epoch = 10 * kMillisecond;
  uint64_t demeter_sample_period = 97;
  // Scaled split threshold: keeps the paper's ratio of split margin
  // (alpha * tau_split * vcpus) to samples-per-epoch (~2.5%) at this
  // simulation's sample rate.
  double demeter_split_threshold = 4.0;
  Nanos policy_period = 15 * kMillisecond;
  Nanos timeline_bucket = 25 * kMillisecond;
  // Concurrent VMs for the multi-VM experiments (the paper runs nine).
  int concurrent_vms = 3;
  // Runner controls (see flags above).
  int jobs = 0;               // <= 0: hardware_concurrency.
  std::string out;            // JSON-lines output path; empty = none.
  std::string trace;          // Chrome trace output path; empty = no tracing.
  FaultPlan faults;           // --faults; empty = fault-free.
  bool check_invariants = false;  // --check.
  bool smoke = false;         // --smoke was given (benches that scale VM counts).

  // Prints the flags `prog` accepts: the shared ones its kind takes (no
  // --faults when it owns its fault schedule), then `own_flags`, lines
  // describing the flags a caller parsed before FromArgs.
  static void Usage(const char* prog, std::FILE* stream, BenchKind kind, bool owns_faults,
                    const std::string& own_flags) {
    const bool runner = kind == BenchKind::kRunner;
    std::fprintf(stream,
                 "usage: %s [--full] [--smoke]%s\n"
                 "          %s[--check] [--help]\n",
                 prog, runner ? " [--jobs=N] [--out=FILE] [--trace=FILE]" : "",
                 owns_faults ? "" : "[--faults=SPEC] ");
    std::fprintf(stream,
                 "  --full         paper-scale (slower) configuration\n"
                 "  --smoke        tiny CI configuration (completes in seconds)\n");
    if (runner) {
      std::fprintf(stream,
                   "  --jobs=N       parallel experiment jobs (default: all cores)\n"
                   "  --out=FILE     also write JSON-lines results to FILE\n"
                   "  --trace=FILE   write Chrome trace_event JSON to FILE\n");
    }
    if (!owns_faults) {
      std::fprintf(stream,
                   "  --faults=SPEC  inject a fault schedule, e.g.\n"
                   "                 'bdrop=0.1,stall=5ms/50ms,vqcap=8' (see src/fault)\n");
    }
    std::fprintf(stream, "  --check        audit cross-layer invariants every quantum\n%s",
                 own_flags.c_str());
  }

  // Parses the shared bench flags. Unknown arguments, the runner flags given
  // to a kDirect bench, and --faults given to a bench that `owns_faults`
  // (sweeps its own fault schedules, which a second one would silently mix
  // with) are an error: print a message and exit(2) rather than silently
  // ignoring a typo or a file that would stay empty. Output files are
  // opened only after every argument has been accepted. `own_flags` goes
  // into the usage text (see Usage).
  static BenchScale FromArgs(int argc, char** argv, BenchKind kind = BenchKind::kRunner,
                             bool owns_faults = false, const std::string& own_flags = {}) {
    BenchScale scale;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--full") == 0) {
        scale.vm_bytes = 128 * kMiB;
        scale.transactions = 2000000;
        scale.vcpus = 4;
        scale.concurrent_vms = 9;
      } else if (std::strcmp(arg, "--smoke") == 0) {
        // CI-sized: a full sweep finishes in seconds. The runs end after a
        // few milliseconds of virtual time, before TPP, Nomad and TPP-H
        // first migrate a page, so the policy results' shapes need default
        // scale.
        scale.vm_bytes = 8 * kMiB;
        scale.transactions = 20000;
        scale.vcpus = 2;
        scale.concurrent_vms = 2;
        scale.smoke = true;
      } else if (kind == BenchKind::kDirect &&
                 (std::strncmp(arg, "--jobs=", 7) == 0 || std::strncmp(arg, "--out=", 6) == 0 ||
                  std::strncmp(arg, "--trace=", 8) == 0)) {
        const int flag_len = static_cast<int>(std::strcspn(arg, "="));
        std::fprintf(stderr,
                     "%s: %.*s is not supported: this bench drives its machines directly, "
                     "not through the experiment runner\n",
                     argv[0], flag_len, arg);
        std::exit(2);
      } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
        char* end = nullptr;
        errno = 0;
        const long jobs = std::strtol(arg + 7, &end, 10);
        if (end == arg + 7 || *end != '\0' || errno == ERANGE || jobs < 1 ||
            jobs > std::numeric_limits<int>::max()) {
          std::fprintf(stderr, "%s: --jobs needs an integer in [1, %d], got '%s'\n", argv[0],
                       std::numeric_limits<int>::max(), arg + 7);
          std::exit(2);
        }
        scale.jobs = static_cast<int>(jobs);
      } else if (std::strncmp(arg, "--out=", 6) == 0) {
        scale.out = arg + 6;
        if (scale.out.empty()) {
          std::fprintf(stderr, "%s: --out needs a file path\n", argv[0]);
          std::exit(2);
        }
      } else if (std::strncmp(arg, "--trace=", 8) == 0) {
        scale.trace = arg + 8;
        if (scale.trace.empty()) {
          std::fprintf(stderr, "%s: --trace needs a file path\n", argv[0]);
          std::exit(2);
        }
      } else if (owns_faults && std::strncmp(arg, "--faults=", 9) == 0) {
        std::fprintf(stderr, "%s: this bench owns its fault schedule; drop --faults\n", argv[0]);
        std::exit(2);
      } else if (std::strncmp(arg, "--faults=", 9) == 0) {
        std::string error;
        const std::optional<FaultPlan> plan = FaultPlan::Parse(arg + 9, &error);
        if (!plan.has_value()) {
          std::fprintf(stderr, "%s: bad --faults spec: %s\n", argv[0], error.c_str());
          std::exit(2);
        }
        scale.faults = *plan;
      } else if (std::strcmp(arg, "--check") == 0) {
        scale.check_invariants = true;
      } else if (std::strcmp(arg, "--help") == 0) {
        Usage(argv[0], stdout, kind, owns_faults, own_flags);
        std::exit(0);
      } else {
        std::fprintf(stderr, "%s: unrecognized argument '%s'\n", argv[0], arg);
        Usage(argv[0], stderr, kind, owns_faults, own_flags);
        std::exit(2);
      }
    }
    // Fail before the sweep, not after: an unwritable path must not cost
    // minutes of simulation first.
    for (const std::string* path : {&scale.out, &scale.trace}) {
      if (path->empty()) {
        continue;
      }
      std::FILE* probe = std::fopen(path->c_str(), "w");
      if (probe == nullptr) {
        std::fprintf(stderr, "%s: cannot open '%s' for writing\n", argv[0], path->c_str());
        std::exit(2);
      }
      std::fclose(probe);
    }
    return scale;
  }

  uint64_t footprint() const {
    return PageFloor(static_cast<uint64_t>(footprint_ratio * static_cast<double>(vm_bytes)));
  }
};

// Parses a fault schedule built into a bench. A malformed one is a bug in
// the bench, so it aborts naming the spec.
inline FaultPlan BuiltInFaults(const std::string& spec) {
  std::string error;
  const std::optional<FaultPlan> plan = FaultPlan::Parse(spec, &error);
  DEMETER_CHECK(plan.has_value()) << "bad built-in fault spec '" << spec << "': " << error;
  return *plan;
}

// V VMs spread over H hosts: the size of a fleet bench's cluster.
struct Fleet {
  int vms = 0;
  int hosts = 0;
};

// Parses the VxH of --fleet=VxH. V and H are whole decimal tokens in
// [1, INT_MAX], V a multiple of H, and H even when `even_hosts` is set;
// anything else exits 2 naming --fleet.
inline Fleet ParseFleet(const char* prog, const char* text, bool even_hosts) {
  auto whole = [](const std::string& token, int* out) {
    if (token.empty() || token.find_first_not_of("0123456789") != std::string::npos) {
      return false;
    }
    errno = 0;
    const long value = std::strtol(token.c_str(), nullptr, 10);
    *out = static_cast<int>(value);
    return errno != ERANGE && value >= 1 && value <= std::numeric_limits<int>::max();
  };
  const std::string value = text;
  const size_t x = value.find('x');
  Fleet fleet;
  if (x == std::string::npos || !whole(value.substr(0, x), &fleet.vms) ||
      !whole(value.substr(x + 1), &fleet.hosts) || fleet.vms % fleet.hosts != 0 ||
      (even_hosts && fleet.hosts % 2 != 0)) {
    std::fprintf(stderr, "%s: --fleet needs VxH with V a multiple of H%s, got '%s'\n", prog,
                 even_hosts ? " and H even (odd hosts are the no-fail safe harbor)" : "", text);
    std::exit(2);
  }
  return fleet;
}

struct FleetScale {
  BenchScale scale;
  Fleet fleet;
};

// The flags of the fleet benches. There --smoke and --full pick the fleet
// size (`smoke`, `normal` or `full`), not the VM's: per-VM work stays
// CI-sized, doubled so each run spans several fault windows, and the fleet
// dimension is what grows. --fleet=VxH sets the size outright (see
// ParseFleet); `claim` may take further bench-specific flags, which
// `claim_usage` describes for --help; the rest go to BenchScale::FromArgs.
// Fleet benches own their fault schedules, so --faults is rejected.
inline FleetScale FleetScaleFromArgs(int argc, char** argv, Fleet smoke, Fleet normal, Fleet full,
                                     bool even_hosts,
                                     const std::function<bool(const char*)>& claim = {},
                                     const char* claim_usage = "") {
  std::optional<Fleet> fleet;
  bool full_flag = false;
  std::vector<char*> shared = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--fleet=", 8) == 0) {
      fleet = ParseFleet(argv[0], argv[i] + 8, even_hosts);
    } else if (!claim || !claim(argv[i])) {
      full_flag = full_flag || std::strcmp(argv[i], "--full") == 0;
      shared.push_back(argv[i]);
    }
  }
  char fleet_usage[256];
  std::snprintf(fleet_usage, sizeof(fleet_usage),
                "  --fleet=VxH    V VMs on H hosts, V a multiple of H%s\n"
                "                 (default %dx%d, %dx%d with --smoke, %dx%d with --full)\n",
                even_hosts ? " and H even" : "", normal.vms, normal.hosts, smoke.vms,
                smoke.hosts, full.vms, full.hosts);
  FleetScale out{BenchScale::FromArgs(static_cast<int>(shared.size()), shared.data(),
                                      BenchKind::kRunner, /*owns_faults=*/true,
                                      std::string(fleet_usage) + claim_usage),
                 {}};
  BenchScale& scale = out.scale;
  out.fleet = fleet ? *fleet : scale.smoke ? smoke : full_flag ? full : normal;
  scale.vm_bytes = scale.smoke ? 8 * kMiB : 16 * kMiB;
  scale.transactions = (scale.smoke ? 20000 : 50000) * 2;
  scale.vcpus = 2;
  return out;
}

enum class SmemKind { kPmem, kCxl };

inline const char* SmemKindName(SmemKind smem) {
  return smem == SmemKind::kPmem ? "pmem" : "cxl";
}

inline MachineConfig HostFor(const BenchScale& scale, int num_vms,
                             SmemKind smem = SmemKind::kPmem) {
  MachineConfig config;
  const uint64_t n = static_cast<uint64_t>(num_vms);
  // Host DRAM is sized like the paper's testbed: each VM's 1:5 FMEM share
  // plus 25% headroom (the slack §5.4 grants hypervisor-based TPP-H).
  // SMEM is ample so ballooned-up configurations also fit.
  const uint64_t fmem =
      PageCeil(static_cast<uint64_t>(static_cast<double>(scale.vm_bytes * n) * 0.2 * 1.25));
  const uint64_t smem_bytes = scale.vm_bytes * n * 2;
  config.tiers = {TierSpec::LocalDram(fmem), smem == SmemKind::kPmem
                                                 ? TierSpec::Pmem(smem_bytes)
                                                 : TierSpec::RemoteDram(smem_bytes)};
  // Observability only: results are identical with or without --trace /
  // --check.
  config.capture_trace = !scale.trace.empty();
  config.check_invariants = scale.check_invariants;
  config.faults = scale.faults;
  return config;
}

inline VmSetup SetupFor(const BenchScale& scale, const std::string& workload, PolicyKind policy) {
  VmSetup setup;
  setup.vm.total_memory_bytes = scale.vm_bytes;
  setup.vm.fmem_ratio = 0.2;  // The paper's default 1:5.
  setup.vm.num_vcpus = scale.vcpus;
  setup.workload = workload;
  setup.footprint_bytes = scale.footprint();
  setup.target_transactions = scale.transactions;
  setup.policy = policy;
  setup.policy_period = scale.policy_period;
  setup.demeter.range.epoch_length = scale.demeter_epoch;
  setup.demeter.sample_period = scale.demeter_sample_period;
  setup.demeter.range.split_threshold = scale.demeter_split_threshold;
  setup.timeline_bucket = scale.timeline_bucket;
  return setup;
}

// One homogeneous experiment: `num_vms` identical VMs running `workload`
// under `policy` on a HostFor host. The building block of every sweep.
inline ExperimentSpec SpecFor(const BenchScale& scale, const std::string& workload,
                              PolicyKind policy, int num_vms, SmemKind smem = SmemKind::kPmem) {
  ExperimentSpec spec;
  spec.name = workload + "/" + PolicyKindName(policy) + "/" + SmemKindName(smem);
  spec.tag = workload;
  spec.config = HostFor(scale, num_vms, smem);
  for (int v = 0; v < num_vms; ++v) {
    spec.vms.push_back(SetupFor(scale, workload, policy));
  }
  return spec;
}

// A policy as the resilience and fleet sweeps run it: each keeps its
// natural provisioning path, so VM departures and boots exercise every
// provisioner kind.
struct PolicyVariant {
  const char* name;
  PolicyKind kind;
  ProvisionMode provision;
  bool degradation = true;  // Demeter's host-side fallback; only Demeter reads it.

  void ApplyTo(VmSetup& setup) const {
    setup.provision = provision;
    setup.demeter.degradation.enabled = degradation;
  }
};

// The roster of elasticity_churn, overcommit_sweep, cluster_fleet and
// fleet_availability, so their numbers line up. "demeter-nofb" is the
// ablation without the host-side fallback.
inline constexpr PolicyVariant kPolicyVariants[] = {
    {"demeter", PolicyKind::kDemeter, ProvisionMode::kDemeterBalloon, true},
    {"demeter-nofb", PolicyKind::kDemeter, ProvisionMode::kDemeterBalloon, false},
    {"tpp", PolicyKind::kTpp, ProvisionMode::kStatic},
    {"tpp-h", PolicyKind::kHTpp, ProvisionMode::kStatic},
    {"memtis", PolicyKind::kMemtis, ProvisionMode::kVirtioBalloon},
    {"nomad", PolicyKind::kNomad, ProvisionMode::kStatic},
    {"damon", PolicyKind::kDamon, ProvisionMode::kHotplug},
};

inline RunnerOptions RunnerOptionsFor(const BenchScale& scale) {
  RunnerOptions options;
  options.jobs = scale.jobs;
  return options;
}

// Writes the results to --out as JSON lines, and their merged Chrome trace
// to --trace, for each flag that was given. Results are traversed in spec
// order, so both files are byte-identical across --jobs values.
inline void WriteOutputs(const BenchScale& scale, const std::vector<ExperimentResult>& results) {
  if (!scale.out.empty()) {
    JsonLinesSink sink(scale.out);
    EmitResults(results, {&sink});
    std::fprintf(stderr, "wrote %zu experiment results to %s\n", results.size(),
                 scale.out.c_str());
  }
  if (!scale.trace.empty()) {
    std::vector<NamedTrace> traces;
    for (const ExperimentResult& result : results) {
      if (!result.trace.empty()) {
        traces.push_back(NamedTrace{result.spec.name, &result.trace});
      }
    }
    WriteChromeTraceFile(scale.trace, traces);
    std::fprintf(stderr, "wrote %zu traces to %s\n", traces.size(), scale.trace.c_str());
  }
}

// Runs `specs` through the ExperimentRunner on --jobs workers, writes
// --out and --trace, and returns the results in spec order.
inline std::vector<ExperimentResult> RunSpecs(const BenchScale& scale,
                                              std::vector<ExperimentSpec> specs) {
  ExperimentRunner runner(RunnerOptionsFor(scale));
  for (ExperimentSpec& spec : specs) {
    runner.Submit(std::move(spec));
  }
  std::vector<ExperimentResult> results = runner.RunAll();
  WriteOutputs(scale, results);
  return results;
}

// The process's resident-set high water mark in MiB (Linux VmHWM), or a
// negative value where /proc/self/status does not report it. Benches print
// it on stderr, where run-to-run differences leave stdout byte-identical.
inline double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
    }
  }
  return -1.0;
}

// For benches whose tables need every result: aborts naming the first
// experiment that failed.
inline void CheckAllOk(const std::vector<ExperimentResult>& results) {
  for (const ExperimentResult& result : results) {
    DEMETER_CHECK(result.ok) << result.spec.name << ": " << result.error;
  }
}

// Figures 10 and 11: every real-world workload under each policy on a
// DRAM + `smem` host. Prints the mean execution time of every cell,
// Demeter's gain over the next-best guest design per workload, and
// Demeter's geomean speedup over each other policy. The two figures differ
// only in the slow tier, Figure 10's hypervisor-based TPP-H column and
// their titles.
inline void RunWorkloadFigure(const BenchScale& scale, SmemKind smem, bool with_htpp,
                              const char* title, const char* geomean_title) {
  std::vector<PolicyKind> policies = {PolicyKind::kStatic, PolicyKind::kDemeter,
                                      PolicyKind::kTpp, PolicyKind::kMemtis, PolicyKind::kNomad};
  if (with_htpp) {
    policies.push_back(PolicyKind::kHTpp);
  }
  std::printf("%s\n\n", title);
  std::vector<std::string> columns = {"workload"};
  std::vector<ExperimentSpec> specs;
  for (PolicyKind policy : policies) {
    columns.push_back(PolicyKindName(policy));
  }
  columns.push_back("demeter-vs-next-best");
  TablePrinter table(columns);

  // Every (workload, policy) cell is an independent simulation.
  for (const std::string& workload : RealWorldWorkloadNames()) {
    for (PolicyKind policy : policies) {
      specs.push_back(SpecFor(scale, workload, policy, scale.concurrent_vms, smem));
    }
  }
  const std::vector<ExperimentResult> results = RunSpecs(scale, std::move(specs));
  CheckAllOk(results);

  std::map<std::string, std::map<std::string, double>> elapsed;
  size_t next = 0;
  for (const std::string& workload : RealWorldWorkloadNames()) {
    std::map<std::string, double>& row = elapsed[workload];
    std::vector<std::string> cells = {workload};
    for (PolicyKind policy : policies) {
      const double secs = results[next++].MeanElapsedSeconds();
      row[PolicyKindName(policy)] = secs;
      cells.push_back(TablePrinter::Fmt(secs, 3));
    }
    double next_best = 1e300;
    for (const auto& [name, secs] : row) {
      if (name != "demeter" && name != "static" && secs < next_best) {
        next_best = secs;
      }
    }
    const double gain = (next_best - row.at("demeter")) / next_best * 100.0;
    cells.push_back((gain >= 0 ? "+" : "") + TablePrinter::Fmt(gain, 1) + "%");
    table.AddRow(cells);
  }
  table.Print();

  std::printf("\n%s\n", geomean_title);
  for (PolicyKind policy : policies) {
    if (policy == PolicyKind::kDemeter) {
      continue;
    }
    std::vector<double> ratios;
    for (const std::string& workload : RealWorldWorkloadNames()) {
      ratios.push_back(elapsed[workload][PolicyKindName(policy)] / elapsed[workload]["demeter"]);
    }
    std::printf("  vs %-8s %.2fx\n", PolicyKindName(policy), GeometricMean(ratios));
  }
}

}  // namespace demeter

#endif  // DEMETER_BENCH_COMMON_H_
