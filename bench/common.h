// Shared configuration for the paper-reproduction bench binaries.
//
// The paper's testbed runs 16 GiB VMs with 4 vCPUs on a 36-core dual-socket
// host; this simulation runs on one core, so every bench uses a scaled-down
// geometry that preserves the paper's *ratios*: FMEM:total = 1:5, footprint
// close to VM capacity, hot-set fractions, and epoch:run-length proportions.
//
// Flags accepted by every bench (unknown flags are rejected with a usage
// message):
//   --full        larger (slower) configuration closer to paper scale
//   --smoke       tiny configuration for CI smoke runs (seconds, not minutes);
//                 it checks flags, determinism and pinned counters, and ends
//                 too early for the baseline policies to migrate a page
//   --faults=SPEC inject the given fault schedule into every machine
//                 (see FaultPlan::Parse for the SPEC grammar)
//   --check       audit cross-layer invariants during every run (abort on
//                 violation); observability-only, results are unchanged
//   --help        print usage and exit
// and by the benches that run through the ExperimentRunner:
//   --jobs=N      worker threads (default: all cores)
//   --out=FILE    also write results as JSON lines to FILE
//   --trace=FILE  write a Chrome trace_event JSON trace of every run to FILE
// The other benches drive their machines directly and write neither file;
// they reject these three flags with exit 2 before opening anything.

#ifndef DEMETER_BENCH_COMMON_H_
#define DEMETER_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/fault/fault.h"
#include "src/runner/result_sink.h"
#include "src/runner/runner.h"

namespace demeter {

// How a bench runs its experiments: as ExperimentSpecs through the
// ExperimentRunner (which --jobs, --out and --trace drive), or by driving
// Machines directly.
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

  static void Usage(const char* prog, std::FILE* stream, BenchKind kind) {
    const bool runner = kind == BenchKind::kRunner;
    std::fprintf(stream,
                 "usage: %s [--full] [--smoke]%s\n"
                 "          [--faults=SPEC] [--check] [--help]\n",
                 prog, runner ? " [--jobs=N] [--out=FILE] [--trace=FILE]" : "");
    std::fprintf(stream,
                 "  --full         paper-scale (slower) configuration\n"
                 "  --smoke        tiny CI configuration (completes in seconds)\n");
    if (runner) {
      std::fprintf(stream,
                   "  --jobs=N       parallel experiment jobs (default: all cores)\n"
                   "  --out=FILE     also write JSON-lines results to FILE\n"
                   "  --trace=FILE   write Chrome trace_event JSON to FILE\n");
    }
    std::fprintf(stream,
                 "  --faults=SPEC  inject a fault schedule, e.g.\n"
                 "                 'bdrop=0.1,stall=5ms/50ms,vqcap=8' (see src/fault)\n"
                 "  --check        audit cross-layer invariants every quantum\n");
  }

  // Parses the shared bench flags. Unknown arguments, and the runner flags
  // given to a kDirect bench, are an error: print a message and exit(2)
  // rather than silently ignoring a typo or a file that would stay empty.
  // Output files are opened only after every argument has been accepted.
  static BenchScale FromArgs(int argc, char** argv, BenchKind kind = BenchKind::kRunner) {
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
        const long jobs = std::strtol(arg + 7, &end, 10);
        if (end == arg + 7 || *end != '\0' || jobs < 1) {
          std::fprintf(stderr, "%s: --jobs needs a positive integer, got '%s'\n", argv[0],
                       arg + 7);
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
        Usage(argv[0], stdout, kind);
        std::exit(0);
      } else {
        std::fprintf(stderr, "%s: unrecognized argument '%s'\n", argv[0], arg);
        Usage(argv[0], stderr, kind);
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

inline RunnerOptions RunnerOptionsFor(const BenchScale& scale) {
  RunnerOptions options;
  options.jobs = scale.jobs;
  return options;
}

// Writes results to --out as JSON lines when the flag was given.
inline void MaybeWriteJsonl(const BenchScale& scale,
                            const std::vector<ExperimentResult>& results) {
  if (scale.out.empty()) {
    return;
  }
  JsonLinesSink sink(scale.out);
  EmitResults(results, {&sink});
  std::fprintf(stderr, "wrote %zu experiment results to %s\n", results.size(),
               scale.out.c_str());
}

// Writes the merged Chrome trace to --trace when the flag was given.
// Results are traversed in submission order, so the file is byte-identical
// across --jobs values.
inline void MaybeWriteTrace(const BenchScale& scale,
                            const std::vector<ExperimentResult>& results) {
  if (scale.trace.empty()) {
    return;
  }
  std::vector<NamedTrace> traces;
  for (const ExperimentResult& result : results) {
    if (!result.trace.empty()) {
      traces.push_back(NamedTrace{result.spec.name, &result.trace});
    }
  }
  WriteChromeTraceFile(scale.trace, traces);
  std::fprintf(stderr, "wrote %zu traces to %s\n", traces.size(), scale.trace.c_str());
}

}  // namespace demeter

#endif  // DEMETER_BENCH_COMMON_H_
