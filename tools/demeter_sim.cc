// demeter_sim: command-line front end for one-off experiments.
//
//   demeter_sim [--workload NAME] [--policy NAME] [--vms N] [--vm-mib N]
//               [--footprint-mib N] [--txns N] [--smem pmem|cxl]
//               [--provision static|virtio-balloon|demeter-balloon|hotplug]
//               [--overcommit R] [--seed N]
//
// Prints one result row per VM plus aggregates. Example:
//
//   ./build/tools/demeter_sim --workload silo --policy demeter --vms 3

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "src/harness/table.h"
#include "src/runner/experiment.h"

namespace demeter {
namespace {

struct Options {
  std::string workload = "gups";
  std::string policy = "demeter";
  int vms = 1;
  uint64_t vm_mib = 32;
  uint64_t footprint_mib = 24;
  uint64_t txns = 400000;
  std::string smem = "pmem";
  std::string provision = "static";
  // FMEM overcommit ratio: > 1.0 provisions fast-node demand / R of FMEM,
  // adds the far swap tier, and arms the overcommit spill scheduler.
  double overcommit = 1.0;
  uint64_t seed = 42;
};

// Numeric flags are parsed as whole tokens and range-checked before any
// host is built; a bad value exits 2 naming the flag.
[[noreturn]] void BadFlag(const char* flag, const std::string& need, const char* text) {
  std::fprintf(stderr, "demeter-sim: %s needs %s, got '%s'\n", flag, need.c_str(), text);
  std::exit(2);
}

uint64_t ParseUint(const char* flag, const char* text, uint64_t min, uint64_t max) {
  char* end = nullptr;
  errno = 0;
  const bool digit = std::isdigit(static_cast<unsigned char>(text[0])) != 0;
  const unsigned long long value = digit ? std::strtoull(text, &end, 10) : 0;
  if (!digit || *end != '\0' || errno == ERANGE || value < min || value > max) {
    BadFlag(flag, "an integer in [" + std::to_string(min) + ", " + std::to_string(max) + "]",
            text);
  }
  return value;
}

double ParseRatio(const char* flag, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value < 1.0) {
    BadFlag(flag, "a finite ratio >= 1.0", text);
  }
  return value;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  constexpr uint64_t kNoMax = std::numeric_limits<uint64_t>::max();
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0) {
        return nullptr;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (const char* v = next("--workload")) {
      options->workload = v;
    } else if (const char* v = next("--policy")) {
      options->policy = v;
    } else if (const char* v = next("--vms")) {
      options->vms = static_cast<int>(ParseUint("--vms", v, 1, std::numeric_limits<int>::max()));
    } else if (const char* v = next("--vm-mib")) {
      options->vm_mib = ParseUint("--vm-mib", v, 1, kNoMax);
    } else if (const char* v = next("--footprint-mib")) {
      options->footprint_mib = ParseUint("--footprint-mib", v, 1, kNoMax);
    } else if (const char* v = next("--txns")) {
      options->txns = ParseUint("--txns", v, 1, kNoMax);
    } else if (const char* v = next("--smem")) {
      options->smem = v;
    } else if (const char* v = next("--provision")) {
      options->provision = v;
    } else if (const char* v = next("--overcommit")) {
      options->overcommit = ParseRatio("--overcommit", v);
    } else if (const char* v = next("--seed")) {
      options->seed = ParseUint("--seed", v, 0, kNoMax);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  // The workload must fit in the guest: checked once every flag is known.
  if (options->footprint_mib > options->vm_mib) {
    const std::string text = std::to_string(options->footprint_mib);
    BadFlag("--footprint-mib", "at most --vm-mib (" + std::to_string(options->vm_mib) + ")",
            text.c_str());
  }
  return true;
}

ProvisionMode ParseProvision(const std::string& name) {
  if (name == "static") {
    return ProvisionMode::kStatic;
  }
  if (name == "virtio-balloon") {
    return ProvisionMode::kVirtioBalloon;
  }
  if (name == "demeter-balloon") {
    return ProvisionMode::kDemeterBalloon;
  }
  if (name == "hotplug") {
    return ProvisionMode::kHotplug;
  }
  std::fprintf(stderr, "unknown provision mode: %s\n", name.c_str());
  std::exit(2);
}

int Run(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    return 2;
  }

  ExperimentSpec spec;
  spec.name = options.workload + "/" + options.policy;
  spec.tag = options.workload;
  MachineConfig& host = spec.config;
  host.seed = options.seed;
  const uint64_t n = static_cast<uint64_t>(options.vms);
  const uint64_t fmem = PageCeil(static_cast<uint64_t>(
      static_cast<double>(options.vm_mib * kMiB * n) * 0.2 * 1.25 / options.overcommit));
  const uint64_t smem_bytes = options.vm_mib * kMiB * n * 2;
  host.tiers = {TierSpec::LocalDram(fmem), options.smem == "cxl"
                                               ? TierSpec::RemoteDram(smem_bytes)
                                               : TierSpec::Pmem(smem_bytes)};
  if (options.overcommit > 1.0) {
    // Oversubscribed FMEM needs somewhere for the displaced tail to go once
    // SMEM also fills: add the far swap tier and arm the spill scheduler.
    host.tiers.push_back(TierSpec::Zswap(options.vm_mib * kMiB * n));
    host.overcommit.enabled = true;
  }
  for (int v = 0; v < options.vms; ++v) {
    VmSetup setup;
    setup.vm.total_memory_bytes = options.vm_mib * kMiB;
    setup.vm.num_vcpus = 2;
    setup.workload = options.workload;
    setup.footprint_bytes = options.footprint_mib * kMiB;
    setup.target_transactions = options.txns;
    setup.policy = PolicyKindFromName(options.policy);
    setup.provision = ParseProvision(options.provision);
    setup.policy_period = 15 * kMillisecond;
    setup.demeter.range.epoch_length = 10 * kMillisecond;
    setup.demeter.range.split_threshold = 4.0;
    setup.demeter.sample_period = 97;
    spec.vms.push_back(setup);
  }
  const ExperimentResult result = RunExperiment(spec);

  std::printf("workload=%s policy=%s vms=%d vm=%lluMiB footprint=%lluMiB smem=%s "
              "provision=%s overcommit=%.2f seed=%llu\n\n",
              options.workload.c_str(), options.policy.c_str(), options.vms,
              static_cast<unsigned long long>(options.vm_mib),
              static_cast<unsigned long long>(options.footprint_mib), options.smem.c_str(),
              options.provision.c_str(), options.overcommit,
              static_cast<unsigned long long>(options.seed));

  TablePrinter table({"vm", "elapsed-s", "txn/s", "fmem-hit", "promoted", "demoted",
                      "tlb-single", "tlb-full", "mgmt-cores", "p99-lat-us"});
  for (size_t v = 0; v < result.vms.size(); ++v) {
    const VmRunResult& r = result.vms[v];
    table.AddRow({TablePrinter::Fmt(static_cast<uint64_t>(v)),
                  TablePrinter::Fmt(r.elapsed_s, 3), TablePrinter::Fmt(r.ThroughputTps(), 0),
                  TablePrinter::Fmt(r.fmem_access_fraction * 100, 1) + "%",
                  TablePrinter::Fmt(r.vm_stats.pages_promoted),
                  TablePrinter::Fmt(r.vm_stats.pages_demoted),
                  TablePrinter::Fmt(r.tlb.single_flushes), TablePrinter::Fmt(r.tlb.full_flushes),
                  TablePrinter::Fmt(r.MgmtCores(), 3),
                  TablePrinter::Fmt(static_cast<double>(r.txn_latency_ns.Percentile(99)) / 1000.0,
                                    2)});
  }
  table.Print();
  std::printf("\nmean elapsed %.3fs, total mgmt cores %.3f\n", result.MeanElapsedSeconds(),
              result.TotalMgmtCores());
  return 0;
}

}  // namespace
}  // namespace demeter

int main(int argc, char** argv) { return demeter::Run(argc, argv); }
