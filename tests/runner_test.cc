// Runner subsystem tests: the seed rule (RunExperiment equals the same spec
// driven by hand), result ordering, failure isolation, and the headline
// guarantee — the same ExperimentSpec set run with --jobs=1 and --jobs=8
// yields identical VmRunResults. Run under -fsanitize=thread in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/runner/result_sink.h"
#include "src/runner/runner.h"

namespace demeter {
namespace {

// ------------------------------------------------------------------ Specs

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

// --------------------------------------------------------------- Seed rule

// Every field of a VmRunResult, doubles as exact hex floats, so two results
// compare equal as strings exactly when they are equal field by field.
std::string Describe(const VmRunResult& r) {
  std::string out;
  char buf[64];
  auto num = [&](const char* key, uint64_t v) {
    out += std::string(key) + "=" + std::to_string(v) + " ";
  };
  auto real = [&](const char* key, double v) {
    std::snprintf(buf, sizeof(buf), "%a", v);
    out += std::string(key) + "=" + buf + " ";
  };
  out += r.workload + " " + r.policy + " ";
  num("transactions", r.transactions);
  real("elapsed_s", r.elapsed_s);
  num("tlb.hits", r.tlb.hits);
  num("tlb.misses", r.tlb.misses);
  num("tlb.single_flushes", r.tlb.single_flushes);
  num("tlb.full_flushes", r.tlb.full_flushes);
  const VmStats& s = r.vm_stats;
  for (uint64_t v : {s.accesses, s.writes, s.cache_hits, s.guest_faults, s.ept_faults,
                     s.fmem_accesses, s.smem_accesses, s.swap_accesses, s.swap_ins,
                     s.pages_promoted, s.pages_demoted, s.context_switches}) {
    num("stat", v);
  }
  real("total_access_ns", s.total_access_ns);
  for (int i = 0; i < kNumTmmStages; ++i) {
    const TmmStage stage = static_cast<TmmStage>(i);
    num(TmmStageName(stage), r.mgmt.ForStage(stage));
  }
  num("latency.count", r.txn_latency_ns.count());
  num("latency.sum", r.txn_latency_ns.sum());
  num("latency.min", r.txn_latency_ns.min());
  num("latency.max", r.txn_latency_ns.max());
  for (double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
    num("latency.p", r.txn_latency_ns.Percentile(p));
  }
  for (uint64_t bucket : r.timeline) {
    num("timeline", bucket);
  }
  num("timeline_bucket", r.timeline_bucket);
  real("fmem_access_fraction", r.fmem_access_fraction);
  return out + r.metrics.ToJson();
}

void ExpectSameRun(const ExperimentResult& run, const std::vector<const VmRunResult*>& by_hand,
                   const MetricSnapshot& hand_metrics) {
  ASSERT_TRUE(run.ok) << run.error;
  ASSERT_EQ(run.vms.size(), by_hand.size());
  for (size_t v = 0; v < by_hand.size(); ++v) {
    EXPECT_EQ(Describe(run.vms[v]), Describe(*by_hand[v])) << "vm " << v;
  }
  EXPECT_EQ(run.host_metrics.ToJson(), hand_metrics.ToJson());
}

// The runner adds nothing to a spec: RunExperiment runs at the base seed,
// exactly as the same config driven by hand. So a bench that moves from
// hand-driven machines onto the runner keeps its results byte for byte.
TEST(SeedRuleTest, RunExperimentEqualsHandDrivenMachine) {
  ExperimentSpec spec = SmallSpec("hand", "gups", PolicyKind::kDemeter, 60000);
  spec.vms.push_back(SmallSpec("hand", "btree", PolicyKind::kTpp, 40000).vms[0]);
  spec.config.tiers = {TierSpec::LocalDram(20 * kMiB), TierSpec::Pmem(128 * kMiB)};
  spec.config.faults = *FaultPlan::Parse("bdrop=0.3,pebsdrop=0.2,migfail=0.1");
  Machine machine(spec.config);
  for (const VmSetup& setup : spec.vms) {
    machine.AddVm(setup);
  }
  machine.Run();
  ExpectSameRun(RunExperiment(spec), {&machine.result(0), &machine.result(1)},
                machine.SnapshotMetrics().FilterPrefix("host/", /*strip=*/true));
}

TEST(SeedRuleTest, RunExperimentEqualsHandDrivenTwoHostCluster) {
  ExperimentSpec spec = SmallSpec("fleet", "gups", PolicyKind::kDemeter, 60000);
  for (int i = 0; i < 3; ++i) {
    spec.vms.push_back(spec.vms[0]);
  }
  spec.config.tiers = {TierSpec::LocalDram(20 * kMiB), TierSpec::Pmem(192 * kMiB)};
  spec.config.faults = *FaultPlan::Parse("migratefail=0.5/1ms@0,migratefail=0.5/1ms@1");
  spec.cluster.num_hosts = 2;
  spec.cluster.host_faults = {*FaultPlan::Parse("tiershrink=0.3/6ms/20ms@0"), FaultPlan{}};
  Cluster cluster(spec.config, spec.cluster);
  for (const VmSetup& setup : spec.vms) {
    cluster.AddVm(setup);
  }
  cluster.Run();
  std::vector<const VmRunResult*> by_hand;
  for (int i = 0; i < cluster.num_vms(); ++i) {
    by_hand.push_back(&cluster.result(i));
  }
  ExpectSameRun(RunExperiment(spec), by_hand, cluster.SnapshotMetrics());
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

TEST(RunnerTest, ThrowingSpecIsIsolated) {
  // A run is a deterministic function of its spec, so the runner tries each
  // spec once: the throwing spec reports its error, its neighbours finish.
  std::mutex mu;
  std::map<std::string, int> runs;
  RunnerOptions options = QuietOptions(2);
  options.run_fn = [&](const ExperimentSpec& spec) -> ExperimentResult {
    {
      std::lock_guard<std::mutex> lock(mu);
      ++runs[spec.name];
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
  runner.Submit(SmallSpec("before", "gups", PolicyKind::kStatic));
  runner.Submit(SmallSpec("broken", "gups", PolicyKind::kStatic));
  runner.Submit(SmallSpec("after", "gups", PolicyKind::kStatic));
  const std::vector<ExperimentResult> results = runner.RunAll();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_EQ(results[1].spec.name, "broken");
  EXPECT_EQ(results[1].error, "permanent");
  EXPECT_TRUE(results[2].ok);
  for (const auto& [name, count] : runs) {
    EXPECT_EQ(count, 1) << name;
  }
  EXPECT_NE(JsonLinesSink::ToJsonLines(results[1]).find("\"error\":\"permanent\""),
            std::string::npos);
}

// This process's thread count from /proc/self/status, or -1 where that
// file cannot be read.
int ProcessThreads() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return -1;
  }
  char line[256];
  int threads = -1;
  while (std::fgets(line, sizeof(line), status) != nullptr &&
         std::sscanf(line, "Threads: %d", &threads) != 1) {
  }
  std::fclose(status);
  return threads;
}

TEST(RunnerTest, PoolNeverOutnumbersSpecs) {
  // --jobs=32 over two specs starts two workers, not 32 idle threads.
  const int before = ProcessThreads();
  if (before < 0) {
    GTEST_SKIP() << "/proc/self/status cannot be read";
  }
  std::mutex mu;
  int most = 0;
  RunnerOptions options = QuietOptions(32);
  options.run_fn = [&](const ExperimentSpec& spec) {
    {
      std::lock_guard<std::mutex> lock(mu);
      most = std::max(most, ProcessThreads());
    }
    ExperimentResult result;
    result.spec = spec;
    result.ok = true;
    return result;
  };
  ExperimentRunner runner(options);
  runner.Submit(SmallSpec("first", "gups", PolicyKind::kStatic));
  runner.Submit(SmallSpec("second", "gups", PolicyKind::kStatic));
  runner.RunAll();
  EXPECT_LE(most - before, 2) << before << " threads before RunAll, " << most
                              << " while a job ran";
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
