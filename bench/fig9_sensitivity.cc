// Figure 9: parameter sensitivity of access tracking and hotness
// classification, measured as GUPS runtime.
//
// Four sweeps, as in the paper: PEBS sample period and load-latency
// threshold; range-split period (t_split) and split threshold (tau_split).
// Paper shape: flat plateaus across a wide middle range, degrading only at
// extremes (periods too long, thresholds too high, epochs too frequent).

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench/common.h"

namespace demeter {
namespace {

ExperimentSpec SpecWith(const BenchScale& scale, const std::string& name, uint64_t sample_period,
                        double latency_threshold, Nanos split_period, double split_threshold) {
  ExperimentSpec spec = SpecFor(scale, "gups", PolicyKind::kDemeter, 1);
  spec.name = name;
  spec.tag = name.substr(0, name.find('/'));
  DemeterConfig& demeter = spec.vms[0].demeter;
  demeter.sample_period = sample_period;
  demeter.latency_threshold_ns = latency_threshold;
  demeter.range.epoch_length = split_period;
  demeter.range.split_threshold = split_threshold;
  return spec;
}

int Run(int argc, char** argv) {
  const BenchScale scale = BenchScale::FromArgs(argc, argv);
  // The scaled defaults corresponding to the paper's (4093, 64ns, 500ms, 15).
  const uint64_t kPeriod = scale.demeter_sample_period;
  const double kThreshold = 64.0;
  const Nanos kEpoch = scale.demeter_epoch;
  const double kTau = scale.demeter_split_threshold;
  const uint64_t periods[] = {kPeriod / 4, kPeriod / 2, kPeriod, kPeriod * 4, kPeriod * 16,
                              kPeriod * 64};
  const double thresholds[] = {16.0, 32.0, 64.0, 128.0, 512.0, 2048.0};
  const Nanos epochs[] = {kEpoch / 4, kEpoch / 2, kEpoch, kEpoch * 4, kEpoch * 16, kEpoch * 64};
  const double taus[] = {kTau / 4, kTau / 2, kTau, kTau * 2, kTau * 4, kTau * 16};

  std::printf("Figure 9: access tracking & classification sensitivity (GUPS runtime, s)\n\n");

  // Four sweeps of six runs each, every one an independent simulation.
  std::vector<ExperimentSpec> specs;
  for (uint64_t period : periods) {
    specs.push_back(SpecWith(scale, "sample-period/" + TablePrinter::Fmt(period), period,
                             kThreshold, kEpoch, kTau));
  }
  for (double threshold : thresholds) {
    specs.push_back(SpecWith(scale, "latency-threshold-ns/" + TablePrinter::Fmt(threshold, 0),
                             kPeriod, threshold, kEpoch, kTau));
  }
  for (Nanos epoch : epochs) {
    specs.push_back(SpecWith(scale, "split-period-ms/" + TablePrinter::Fmt(ToMillis(epoch), 1),
                             kPeriod, kThreshold, epoch, kTau));
  }
  for (double tau : taus) {
    specs.push_back(SpecWith(scale, "split-threshold/" + TablePrinter::Fmt(tau, 1), kPeriod,
                             kThreshold, kEpoch, tau));
  }
  const std::vector<ExperimentResult> results = RunSpecs(scale, std::move(specs));
  CheckAllOk(results);

  // One table per sweep, in spec order: the swept value, then the runtime.
  size_t next = 0;
  auto print_table = [&] {
    const std::string& name = results[next].spec.name;
    TablePrinter table({name.substr(0, name.find('/')), "runtime-s"});
    for (size_t point = 0; point < std::size(periods); ++point, ++next) {
      const std::string& label = results[next].spec.name;
      table.AddRow({label.substr(label.find('/') + 1),
                    TablePrinter::Fmt(results[next].vms[0].elapsed_s, 3)});
    }
    table.Print();
  };
  std::printf("Sweep A: PEBS sample period (paper default scaled: %llu)\n",
              static_cast<unsigned long long>(kPeriod));
  print_table();
  std::printf("\nSweep B: PEBS load-latency threshold (paper default: 64 ns)\n");
  print_table();
  std::printf("\nSweep C: range split period t_split (paper default scaled: %.0f ms)\n",
              ToMillis(kEpoch));
  print_table();
  std::printf("\nSweep D: split threshold tau_split (paper default scaled: %.1f)\n", kTau);
  print_table();

  std::printf(
      "\nExpected shape (paper): flat middle plateaus; degradation only at the\n"
      "extremes (very long sample/split periods or very high thresholds).\n");
  return 0;
}

}  // namespace
}  // namespace demeter

int main(int argc, char** argv) { return demeter::Run(argc, argv); }
