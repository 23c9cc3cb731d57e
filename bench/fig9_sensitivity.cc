// Figure 9: parameter sensitivity of access tracking and hotness
// classification, measured as GUPS runtime.
//
// Four sweeps, as in the paper: PEBS sample period and load-latency
// threshold; range-split period (t_split) and split threshold (tau_split).
// Paper shape: flat plateaus across a wide middle range, degrading only at
// extremes (periods too long, thresholds too high, epochs too frequent).

#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "src/harness/table.h"

namespace demeter {
namespace {

double RuntimeWith(const BenchScale& scale, uint64_t sample_period, double latency_threshold,
                   Nanos split_period, double split_threshold) {
  Machine machine(HostFor(scale, 1));
  VmSetup setup = SetupFor(scale, "gups", PolicyKind::kDemeter);
  setup.demeter.sample_period = sample_period;
  setup.demeter.latency_threshold_ns = latency_threshold;
  setup.demeter.range.epoch_length = split_period;
  setup.demeter.range.split_threshold = split_threshold;
  machine.AddVm(setup);
  machine.Run();
  return machine.result(0).elapsed_s;
}

int Run(int argc, char** argv) {
  const BenchScale scale = BenchScale::FromArgs(argc, argv, BenchKind::kDirect);
  // The scaled defaults corresponding to the paper's (4093, 64ns, 500ms, 15).
  const uint64_t kPeriod = scale.demeter_sample_period;
  const double kThreshold = 64.0;
  const Nanos kEpoch = scale.demeter_epoch;
  const double kTau = scale.demeter_split_threshold;

  std::printf("Figure 9: access tracking & classification sensitivity (GUPS runtime, s)\n\n");

  {
    TablePrinter table({"sample-period", "runtime-s"});
    for (uint64_t period : {kPeriod / 4, kPeriod / 2, kPeriod, kPeriod * 4, kPeriod * 16,
                            kPeriod * 64}) {
      table.AddRow({TablePrinter::Fmt(period),
                    TablePrinter::Fmt(RuntimeWith(scale, period, kThreshold, kEpoch, kTau), 3)});
    }
    std::printf("Sweep A: PEBS sample period (paper default scaled: %llu)\n",
                static_cast<unsigned long long>(kPeriod));
    table.Print();
  }

  {
    TablePrinter table({"latency-threshold-ns", "runtime-s"});
    for (double threshold : {16.0, 32.0, 64.0, 128.0, 512.0, 2048.0}) {
      table.AddRow({TablePrinter::Fmt(threshold, 0),
                    TablePrinter::Fmt(RuntimeWith(scale, kPeriod, threshold, kEpoch, kTau), 3)});
    }
    std::printf("\nSweep B: PEBS load-latency threshold (paper default: 64 ns)\n");
    table.Print();
  }

  {
    TablePrinter table({"split-period-ms", "runtime-s"});
    for (Nanos period : {kEpoch / 4, kEpoch / 2, kEpoch, kEpoch * 4, kEpoch * 16, kEpoch * 64}) {
      table.AddRow({TablePrinter::Fmt(ToMillis(period), 1),
                    TablePrinter::Fmt(RuntimeWith(scale, kPeriod, kThreshold, period, kTau), 3)});
    }
    std::printf("\nSweep C: range split period t_split (paper default scaled: %.0f ms)\n",
                ToMillis(kEpoch));
    table.Print();
  }

  {
    TablePrinter table({"split-threshold", "runtime-s"});
    for (double tau : {kTau / 4, kTau / 2, kTau, kTau * 2, kTau * 4, kTau * 16}) {
      table.AddRow({TablePrinter::Fmt(tau, 1),
                    TablePrinter::Fmt(RuntimeWith(scale, kPeriod, kThreshold, kEpoch, tau), 3)});
    }
    std::printf("\nSweep D: split threshold tau_split (paper default scaled: %.1f)\n", kTau);
    table.Print();
  }

  std::printf(
      "\nExpected shape (paper): flat middle plateaus; degradation only at the\n"
      "extremes (very long sample/split periods or very high thresholds).\n");
  return 0;
}

}  // namespace
}  // namespace demeter

int main(int argc, char** argv) { return demeter::Run(argc, argv); }
