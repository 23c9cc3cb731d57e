// Runner subsystem tests: content-hash seed derivation, result ordering,
// retry policy, and the headline guarantee — the same ExperimentSpec set run
// with --jobs=1 and --jobs=8 yields identical VmRunResults. Run under
// -fsanitize=thread in CI.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/runner/result_sink.h"
#include "src/runner/runner.h"

namespace demeter {
namespace {

// ---------------------------------------------------- Spec hashing and seeds

ExperimentSpec SmallSpec(const std::string& name, const std::string& workload,
                         PolicyKind policy, uint64_t transactions = 100000) {
  ExperimentSpec spec;
  spec.name = name;
  spec.tag = workload;
  spec.config.tiers = {TierSpec::LocalDram(10 * kMiB), TierSpec::Pmem(64 * kMiB)};
  VmSetup setup;
  setup.vm.total_memory_bytes = 32 * kMiB;
  setup.vm.num_vcpus = 2;
  setup.workload = workload;
  setup.footprint_bytes = 24 * kMiB;
  setup.target_transactions = transactions;
  setup.policy = policy;
  setup.policy_period = 15 * kMillisecond;
  setup.demeter.range.epoch_length = 10 * kMillisecond;
  setup.demeter.range.split_threshold = 4.0;
  setup.demeter.sample_period = 97;
  spec.vms.push_back(setup);
  return spec;
}

TEST(ExperimentSpecTest, ContentHashIsContentOnly) {
  const ExperimentSpec a = SmallSpec("x", "gups", PolicyKind::kDemeter);
  const ExperimentSpec b = SmallSpec("x", "gups", PolicyKind::kDemeter);
  EXPECT_EQ(SpecContentHash(a), SpecContentHash(b));
  EXPECT_EQ(DeriveSeed(a), DeriveSeed(b));
}

TEST(ExperimentSpecTest, EmptyFaultPlanLeavesHashUnchanged) {
  // An empty plan must hash exactly like a spec that predates the fault
  // subsystem, so every pre-existing experiment keeps its seed (and thus
  // its bit-identical results).
  const ExperimentSpec base = SmallSpec("x", "gups", PolicyKind::kDemeter);
  ExperimentSpec with_empty = base;
  with_empty.config.faults = FaultPlan{};
  EXPECT_EQ(SpecContentHash(base), SpecContentHash(with_empty));
}

TEST(ExperimentSpecTest, FaultPlanAndDegradationReseed) {
  const ExperimentSpec base = SmallSpec("x", "gups", PolicyKind::kDemeter);
  ExperimentSpec faulted = base;
  faulted.config.faults = *FaultPlan::Parse("bdrop=0.1");
  EXPECT_NE(SpecContentHash(base), SpecContentHash(faulted));
  ExperimentSpec other_fault = faulted;
  other_fault.config.faults = *FaultPlan::Parse("bdrop=0.2");
  EXPECT_NE(SpecContentHash(faulted), SpecContentHash(other_fault));
  // Observability toggles must NOT reseed: they observe the run, they are
  // not part of it.
  ExperimentSpec checked = base;
  checked.config.check_invariants = true;
  EXPECT_EQ(SpecContentHash(base), SpecContentHash(checked));
  // Non-default degradation settings are behaviour, so they do reseed.
  ExperimentSpec degraded = base;
  degraded.vms[0].demeter.degradation.host_batch_pages = 64;
  EXPECT_NE(SpecContentHash(base), SpecContentHash(degraded));
  ExperimentSpec ablation = base;
  ablation.vms[0].demeter.degradation.enabled = false;
  EXPECT_NE(SpecContentHash(base), SpecContentHash(ablation));
}

TEST(ExperimentSpecTest, AnyFieldChangeReseeds) {
  const ExperimentSpec base = SmallSpec("x", "gups", PolicyKind::kDemeter);
  ExperimentSpec renamed = base;
  renamed.name = "y";
  ExperimentSpec repoliced = base;
  repoliced.vms[0].policy = PolicyKind::kTpp;
  ExperimentSpec reseeded = base;
  reseeded.config.seed = 43;
  ExperimentSpec resized = base;
  resized.vms[0].footprint_bytes += kPageSize;
  EXPECT_NE(SpecContentHash(base), SpecContentHash(renamed));
  EXPECT_NE(SpecContentHash(base), SpecContentHash(repoliced));
  EXPECT_NE(SpecContentHash(base), SpecContentHash(reseeded));
  EXPECT_NE(SpecContentHash(base), SpecContentHash(resized));
}

// --------------------------------------------------------- Runner mechanics

RunnerOptions QuietOptions(int jobs) {
  RunnerOptions options;
  options.jobs = jobs;
  options.progress = false;
  return options;
}

TEST(RunnerTest, ResultsComeBackInSpecOrder) {
  // Jobs finish in reverse submission order (later specs sleep less); the
  // result vector must still match submission order.
  RunnerOptions options = QuietOptions(4);
  options.run_fn = [](const ExperimentSpec& spec) {
    const int index = spec.name.back() - '0';
    std::this_thread::sleep_for(std::chrono::milliseconds(5 * (4 - index)));
    ExperimentResult result;
    result.spec = spec;
    result.ok = true;
    return result;
  };
  ExperimentRunner runner(options);
  for (int i = 0; i < 4; ++i) {
    runner.Submit(SmallSpec("spec" + std::to_string(i), "gups", PolicyKind::kStatic));
  }
  const std::vector<ExperimentResult> results = runner.RunAll();
  ASSERT_EQ(results.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)].spec.name, "spec" + std::to_string(i));
    EXPECT_TRUE(results[static_cast<size_t>(i)].ok);
  }
}

TEST(RunnerTest, TransientFailureIsRetriedOnce) {
  std::mutex mu;
  std::map<std::string, int> tries;
  RunnerOptions options = QuietOptions(2);
  options.run_fn = [&](const ExperimentSpec& spec) -> ExperimentResult {
    int attempt;
    {
      std::lock_guard<std::mutex> lock(mu);
      attempt = ++tries[spec.name];
    }
    if (spec.name == "flaky" && attempt == 1) {
      throw std::runtime_error("transient");
    }
    if (spec.name == "broken") {
      throw std::runtime_error("permanent");
    }
    ExperimentResult result;
    result.spec = spec;
    result.ok = true;
    return result;
  };
  ExperimentRunner runner(options);
  runner.Submit(SmallSpec("flaky", "gups", PolicyKind::kStatic));
  runner.Submit(SmallSpec("broken", "gups", PolicyKind::kStatic));
  runner.Submit(SmallSpec("fine", "gups", PolicyKind::kStatic));
  const std::vector<ExperimentResult> results = runner.RunAll();
  EXPECT_TRUE(results[0].ok);
  EXPECT_EQ(results[0].attempts, 2);
  EXPECT_FALSE(results[1].ok);
  EXPECT_EQ(results[1].attempts, 2);
  EXPECT_EQ(results[1].error, "permanent");
  EXPECT_TRUE(results[2].ok);
  EXPECT_EQ(results[2].attempts, 1);
}

// ----------------------------------------------- Determinism across --jobs=N

std::vector<ExperimentSpec> DeterminismSpecs() {
  std::vector<ExperimentSpec> specs = {
      SmallSpec("a", "gups", PolicyKind::kDemeter, 80000),
      SmallSpec("b", "gups", PolicyKind::kTpp, 80000),
      SmallSpec("c", "btree", PolicyKind::kDemeter, 60000),
      SmallSpec("d", "gups", PolicyKind::kMemtis, 80000),
  };
  // A faulted spec rides along so --jobs determinism covers the injector
  // (its streams must key off the spec seed, never thread identity).
  ExperimentSpec faulted = SmallSpec("e", "gups", PolicyKind::kDemeter, 80000);
  faulted.config.faults =
      *FaultPlan::Parse("bdrop=0.3,stall=2ms/8ms,crash=3ms/20ms,pebsdrop=0.3,migfail=0.2");
  specs.push_back(faulted);
  return specs;
}

std::vector<ExperimentResult> RunWithJobs(int jobs) {
  ExperimentRunner runner(QuietOptions(jobs));
  for (ExperimentSpec& spec : DeterminismSpecs()) {
    runner.Submit(std::move(spec));
  }
  return runner.RunAll();
}

TEST(RunnerDeterminismTest, SameResultsWithOneAndEightJobs) {
  const std::vector<ExperimentResult> serial = RunWithJobs(1);
  const std::vector<ExperimentResult> parallel = RunWithJobs(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    const ExperimentResult& a = serial[i];
    const ExperimentResult& b = parallel[i];
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(a.seed, b.seed);
    ASSERT_EQ(a.vms.size(), b.vms.size());
    for (size_t v = 0; v < a.vms.size(); ++v) {
      const VmRunResult& x = a.vms[v];
      const VmRunResult& y = b.vms[v];
      EXPECT_EQ(x.transactions, y.transactions);
      EXPECT_EQ(x.elapsed_s, y.elapsed_s);  // Bit-identical, not approximate.
      EXPECT_EQ(x.tlb.hits, y.tlb.hits);
      EXPECT_EQ(x.tlb.misses, y.tlb.misses);
      EXPECT_EQ(x.tlb.single_flushes, y.tlb.single_flushes);
      EXPECT_EQ(x.tlb.full_flushes, y.tlb.full_flushes);
      EXPECT_EQ(x.vm_stats.accesses, y.vm_stats.accesses);
      EXPECT_EQ(x.vm_stats.pages_promoted, y.vm_stats.pages_promoted);
      EXPECT_EQ(x.vm_stats.pages_demoted, y.vm_stats.pages_demoted);
      EXPECT_EQ(x.txn_latency_ns.count(), y.txn_latency_ns.count());
      EXPECT_EQ(x.txn_latency_ns.Percentile(50), y.txn_latency_ns.Percentile(50));
      EXPECT_EQ(x.txn_latency_ns.Percentile(90), y.txn_latency_ns.Percentile(90));
      EXPECT_EQ(x.txn_latency_ns.Percentile(99), y.txn_latency_ns.Percentile(99));
      EXPECT_EQ(x.txn_latency_ns.Percentile(99.9), y.txn_latency_ns.Percentile(99.9));
    }
    // The structured serialization is byte-identical too.
    EXPECT_EQ(JsonLinesSink::ToJsonLines(a), JsonLinesSink::ToJsonLines(b));
  }
}

TEST(RunnerDeterminismTest, SeedIndependentOfSubmissionOrder) {
  std::vector<ExperimentSpec> specs = DeterminismSpecs();
  ExperimentRunner forward(QuietOptions(2));
  for (const ExperimentSpec& spec : specs) {
    forward.Submit(spec);
  }
  ExperimentRunner backward(QuietOptions(2));
  for (auto it = specs.rbegin(); it != specs.rend(); ++it) {
    backward.Submit(*it);
  }
  const std::vector<ExperimentResult> f = forward.RunAll();
  const std::vector<ExperimentResult> b = backward.RunAll();
  ASSERT_EQ(f.size(), b.size());
  for (size_t i = 0; i < f.size(); ++i) {
    const ExperimentResult& fwd = f[i];
    const ExperimentResult& bwd = b[f.size() - 1 - i];
    EXPECT_EQ(fwd.spec.name, bwd.spec.name);
    EXPECT_EQ(fwd.seed, bwd.seed);
    EXPECT_EQ(fwd.vms[0].elapsed_s, bwd.vms[0].elapsed_s);
  }
}

// ------------------------------------------------------------ Result output

// A full disk used to lose results silently: the sink ignored what fwrite,
// fflush and fclose returned, and the bench still exited 0.
TEST(JsonLinesSinkDeathTest, WriteErrorAbortsNamingThePath) {
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) {
    GTEST_SKIP() << "/dev/full cannot be opened";
  }
  std::fclose(probe);
  // This binary starts runner threads; re-exec instead of forking a
  // threaded process.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ExperimentResult result;
  result.spec.name = "full-disk";
  result.ok = false;
  result.error = "never written";
  ASSERT_FALSE(JsonLinesSink::ToJsonLines(result).empty());
  EXPECT_DEATH(
      {
        JsonLinesSink sink("/dev/full");
        sink.Consume(result);
        sink.Finish();
      },
      "cannot write /dev/full");
}

}  // namespace
}  // namespace demeter
