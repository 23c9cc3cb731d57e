// Figure 8: instantaneous GUPS throughput over time per guest design, with
// locally estimated smoothing.
//
// Paper shapes: Demeter ramps steepest in the discovery phase (range
// classification finds the hot set fastest), shows a brief dip during
// migration, then sustains the highest plateau and finishes first.

#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "src/base/stats.h"

namespace demeter {
namespace {

int Run(int argc, char** argv) {
  BenchScale scale = BenchScale::FromArgs(argc, argv);
  scale.transactions *= 2;  // Longer run: show ramp, dip, and plateau.
  std::printf("Figure 8: instantaneous GUPS throughput (M txn/s, LOESS-smoothed)\n\n");

  std::vector<ExperimentSpec> specs;
  for (PolicyKind policy :
       {PolicyKind::kStatic, PolicyKind::kTpp, PolicyKind::kMemtis, PolicyKind::kNomad,
        PolicyKind::kDemeter}) {
    specs.push_back(SpecFor(scale, "gups", policy, 1));
  }
  const std::vector<ExperimentResult> results = RunSpecs(scale, std::move(specs));
  CheckAllOk(results);

  std::vector<std::string> names;
  std::vector<std::vector<double>> series;
  for (const ExperimentResult& experiment : results) {
    const VmRunResult& result = experiment.vms[0];
    std::vector<double> tput;
    for (uint64_t bucket : result.timeline) {
      tput.push_back(static_cast<double>(bucket) /
                     (static_cast<double>(result.timeline_bucket) * 1e-9) / 1e6);
    }
    names.push_back(PolicyKindName(experiment.spec.vms[0].policy));
    series.push_back(LoessSmooth(tput, 2));
  }

  // Print as columns: time, then one column per policy.
  std::printf("%-10s", "t(ms)");
  for (const auto& name : names) {
    std::printf("%12s", name.c_str());
  }
  std::printf("\n");
  size_t longest = 0;
  for (const auto& s : series) {
    longest = std::max(longest, s.size());
  }
  for (size_t t = 0; t < longest; ++t) {
    std::printf("%-10.0f", static_cast<double>(t) * ToMillis(25 * kMillisecond));
    for (const auto& s : series) {
      if (t < s.size()) {
        std::printf("%12.3f", s[t]);
      } else {
        std::printf("%12s", "-");
      }
    }
    std::printf("\n");
  }
  std::printf(
      "\nExpected shape (paper): demeter's column rises fastest and its series\n"
      "ends first (earliest completion, highest peak).\n");
  return 0;
}

}  // namespace
}  // namespace demeter

int main(int argc, char** argv) { return demeter::Run(argc, argv); }
