// Ablation study: disable one Demeter design decision at a time and
// measure the cost on a hotspot workload (XSBench) and on GUPS.
//
// Variants:
//   demeter           — the full design
//   no-balanced-swap  — sequential demote-then-promote migration instead of
//                       in-place swaps (prior systems' style, §3.2.3)
//   physical-space    — classify in guest-physical address space with a
//                       per-sample translation (the Figure 4 insight:
//                       fragmented gPA space carries no locality, so ranges
//                       never refine)
//   polling-thread    — dedicated sample-collection thread instead of
//                       context-switch drains (HeMem style, §3.2.2)
//   4k-granularity    — split floor lowered to 4 KiB (intra-hugepage
//                       skewness knob, §3.4.1): finer placement, more
//                       ranges to manage
//   coarse-16M        — split floor raised to 16 MiB: cheap but blunt

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"

namespace demeter {
namespace {

struct Variant {
  const char* name;
  DemeterConfig (*make)(const BenchScale&);
};

DemeterConfig BaseConfig(const BenchScale& scale) {
  DemeterConfig config;
  config.range.epoch_length = scale.demeter_epoch;
  config.range.split_threshold = scale.demeter_split_threshold;
  config.sample_period = scale.demeter_sample_period;
  return config;
}

const Variant kVariants[] = {
    {"demeter", [](const BenchScale& s) { return BaseConfig(s); }},
    {"no-balanced-swap",
     [](const BenchScale& s) {
       DemeterConfig config = BaseConfig(s);
       config.relocator.balanced_swap = false;
       return config;
     }},
    {"physical-space",
     [](const BenchScale& s) {
       DemeterConfig config = BaseConfig(s);
       config.classify_virtual = false;
       return config;
     }},
    {"polling-thread",
     [](const BenchScale& s) {
       DemeterConfig config = BaseConfig(s);
       config.drain_on_context_switch = false;
       return config;
     }},
    {"4k-granularity",
     [](const BenchScale& s) {
       DemeterConfig config = BaseConfig(s);
       config.range.min_range_bytes = 4 * kKiB;
       return config;
     }},
    {"coarse-16M",
     [](const BenchScale& s) {
       DemeterConfig config = BaseConfig(s);
       config.range.min_range_bytes = 16 * kMiB;
       return config;
     }},
};

int Run(int argc, char** argv) {
  const BenchScale scale = BenchScale::FromArgs(argc, argv);
  std::printf("Ablation: Demeter design decisions (elapsed seconds; lower is better)\n\n");
  TablePrinter table({"variant", "xsbench-s", "gups-s", "gups-promoted", "gups-mgmt-cores"});

  std::vector<ExperimentSpec> specs;
  for (const Variant& variant : kVariants) {
    for (const char* workload : {"xsbench", "gups"}) {
      ExperimentSpec spec = SpecFor(scale, workload, PolicyKind::kDemeter, 1);
      spec.name = std::string(workload) + "/" + variant.name;
      spec.tag = variant.name;
      spec.vms[0].demeter = variant.make(scale);
      specs.push_back(std::move(spec));
    }
  }
  const std::vector<ExperimentResult> results = RunSpecs(scale, std::move(specs));
  CheckAllOk(results);

  size_t next = 0;
  for (const Variant& variant : kVariants) {
    const VmRunResult& xsbench = results[next++].vms[0];
    const VmRunResult& gups = results[next++].vms[0];
    table.AddRow({variant.name, TablePrinter::Fmt(xsbench.elapsed_s, 3),
                  TablePrinter::Fmt(gups.elapsed_s, 3),
                  TablePrinter::Fmt(gups.vm_stats.pages_promoted),
                  TablePrinter::Fmt(gups.MgmtCores(), 3)});
  }
  table.Print();
  std::printf(
      "\nExpected: the full design is fastest or tied; physical-space stalls\n"
      "(no gPA locality to refine); no-balanced-swap pays extra migration;\n"
      "polling burns management CPU; granularity trades accuracy vs overhead.\n");
  return 0;
}

}  // namespace
}  // namespace demeter

int main(int argc, char** argv) { return demeter::Run(argc, argv); }
