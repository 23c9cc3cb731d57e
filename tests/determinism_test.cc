// Full-system determinism: identical configuration => bit-identical results,
// for every policy and for multi-VM runs. Reproducibility is a first-class
// property of the simulation (all randomness is seeded; no wall-clock
// dependence), and every experiment in EXPERIMENTS.md relies on it.

#include <gtest/gtest.h>

#include <string>

#include "src/fault/fault.h"
#include "src/harness/machine.h"

namespace demeter {
namespace {

struct Fingerprint {
  uint64_t transactions;
  double elapsed_s;
  uint64_t accesses;
  uint64_t promoted;
  uint64_t demoted;
  uint64_t single_flushes;
  uint64_t full_flushes;
  uint64_t mgmt_total;

  bool operator==(const Fingerprint& other) const {
    return transactions == other.transactions && elapsed_s == other.elapsed_s &&
           accesses == other.accesses && promoted == other.promoted &&
           demoted == other.demoted && single_flushes == other.single_flushes &&
           full_flushes == other.full_flushes && mgmt_total == other.mgmt_total;
  }
};

Fingerprint RunOnce(PolicyKind policy, int vms, uint64_t seed,
                    const std::string& fault_spec = "") {
  MachineConfig host;
  host.tiers = {TierSpec::LocalDram(10 * kMiB * static_cast<uint64_t>(vms)),
                TierSpec::Pmem(64 * kMiB * static_cast<uint64_t>(vms))};
  host.seed = seed;
  if (!fault_spec.empty()) {
    const auto plan = FaultPlan::Parse(fault_spec);
    EXPECT_TRUE(plan.has_value()) << fault_spec;
    host.faults = *plan;
  }
  Machine machine(host);
  for (int v = 0; v < vms; ++v) {
    VmSetup setup;
    setup.vm.total_memory_bytes = 32 * kMiB;
    setup.vm.num_vcpus = 2;
    setup.workload = "gups";
    setup.footprint_bytes = 24 * kMiB;
    setup.target_transactions = 150000;
    setup.policy = policy;
    setup.policy_period = 15 * kMillisecond;
    setup.demeter.range.epoch_length = 10 * kMillisecond;
    setup.demeter.range.split_threshold = 4.0;
    setup.demeter.sample_period = 97;
    machine.AddVm(setup);
  }
  machine.Run();
  Fingerprint fp{};
  for (int v = 0; v < vms; ++v) {
    const VmRunResult& r = machine.result(v);
    fp.transactions += r.transactions;
    fp.elapsed_s += r.elapsed_s;
    fp.accesses += r.vm_stats.accesses;
    fp.promoted += r.vm_stats.pages_promoted;
    fp.demoted += r.vm_stats.pages_demoted;
    fp.single_flushes += r.tlb.single_flushes;
    fp.full_flushes += r.tlb.full_flushes;
    fp.mgmt_total += r.mgmt.Total();
  }
  return fp;
}

class DeterminismTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DeterminismTest, IdenticalRunsBitIdentical) {
  const PolicyKind policy = PolicyKindFromName(GetParam());
  const Fingerprint a = RunOnce(policy, 1, 42);
  const Fingerprint b = RunOnce(policy, 1, 42);
  EXPECT_TRUE(a == b) << "same seed must reproduce exactly";
}

TEST_P(DeterminismTest, DifferentSeedsDiffer) {
  const PolicyKind policy = PolicyKindFromName(GetParam());
  const Fingerprint a = RunOnce(policy, 1, 42);
  const Fingerprint b = RunOnce(policy, 1, 43);
  // Access streams differ, so at minimum the timing fingerprint moves.
  EXPECT_NE(a.elapsed_s, b.elapsed_s);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, DeterminismTest,
                         ::testing::Values("static", "demeter", "tpp", "tpp-h", "memtis",
                                           "nomad", "damon"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(DeterminismMultiVm, ThreeVmRunReproduces) {
  const Fingerprint a = RunOnce(PolicyKind::kDemeter, 3, 7);
  const Fingerprint b = RunOnce(PolicyKind::kDemeter, 3, 7);
  EXPECT_TRUE(a == b);
}

// Faulted runs are just as deterministic as fault-free ones: the injector's
// per-(site, vm) streams derive from the machine seed, and stall/crash
// windows are pure functions of virtual time.
constexpr char kFaultSpec[] =
    "bdelay=0.2/100us,bdrop=0.3,stall=2ms/8ms,crash=3ms/20ms,"
    "pebsdrop=0.3,migfail=0.2,tierex=0.05,vqcap=4";

TEST(DeterminismFaulted, IdenticalFaultedRunsBitIdentical) {
  const Fingerprint a = RunOnce(PolicyKind::kDemeter, 1, 42, kFaultSpec);
  const Fingerprint b = RunOnce(PolicyKind::kDemeter, 1, 42, kFaultSpec);
  EXPECT_TRUE(a == b) << "same seed + same fault spec must reproduce exactly";
  // And the faults actually engaged — this is not a vacuous pass.
  const Fingerprint clean = RunOnce(PolicyKind::kDemeter, 1, 42);
  EXPECT_NE(a.elapsed_s, clean.elapsed_s);
}

TEST(DeterminismFaulted, FaultedMultiVmReproduces) {
  const Fingerprint a = RunOnce(PolicyKind::kDemeter, 3, 7, kFaultSpec);
  const Fingerprint b = RunOnce(PolicyKind::kDemeter, 3, 7, kFaultSpec);
  EXPECT_TRUE(a == b);
}

TEST(DeterminismFaulted, FaultSeedChangesDecisions) {
  const Fingerprint a = RunOnce(PolicyKind::kDemeter, 1, 42, kFaultSpec);
  const Fingerprint b = RunOnce(PolicyKind::kDemeter, 1, 43, kFaultSpec);
  EXPECT_NE(a.elapsed_s, b.elapsed_s);
}

// Observability is pure: capturing a trace and auditing invariants after
// every event drain must not move a single byte of the full metrics JSON,
// on a dense host with lifecycle churn (deferred boots, departures) and
// under faults. `observed` turns both on at once.
std::string ChurnyHostMetricsJson(bool observed, int vms, uint64_t seed,
                                  const std::string& fault_spec = "") {
  MachineConfig host;
  host.tiers = {TierSpec::LocalDram(2 * kMiB * static_cast<uint64_t>(vms)),
                TierSpec::Pmem(12 * kMiB * static_cast<uint64_t>(vms))};
  host.seed = seed;
  host.capture_trace = observed;
  host.check_invariants = observed;
  if (!fault_spec.empty()) {
    const auto plan = FaultPlan::Parse(fault_spec);
    EXPECT_TRUE(plan.has_value()) << fault_spec;
    host.faults = *plan;
  }
  Machine machine(host);
  for (int v = 0; v < vms; ++v) {
    VmSetup setup;
    setup.vm.total_memory_bytes = 8 * kMiB;
    setup.vm.num_vcpus = 2;
    setup.workload = "gups";
    setup.footprint_bytes = 6 * kMiB;
    setup.target_transactions = 4000;
    setup.policy = v % 2 == 0 ? PolicyKind::kDemeter : PolicyKind::kTpp;
    setup.policy_period = 15 * kMillisecond;
    setup.demeter.range.epoch_length = 10 * kMillisecond;
    setup.demeter.sample_period = 97;
    // Churn: every fourth VM boots late, every third departs on finish
    // (the active set changes mid-run).
    if (v % 4 == 3) {
      setup.boot_at = 5 * kMillisecond * static_cast<Nanos>(1 + v % 3);
    }
    setup.depart_on_finish = v % 3 == 0;
    machine.AddVm(setup);
  }
  machine.Run();
  // Not a vacuous pass: the observed run really traced.
  EXPECT_EQ(machine.TakeTrace().empty(), !observed);
  std::string json;
  machine.SnapshotMetrics().AppendJson(json);
  EXPECT_FALSE(json.empty());
  return json;
}

TEST(DeterminismObserved, TraceAndChecksAreByteInvisibleAt64Vms) {
  EXPECT_EQ(ChurnyHostMetricsJson(false, 64, 42), ChurnyHostMetricsJson(true, 64, 42));
}

TEST(DeterminismObserved, TraceAndChecksAreByteInvisibleUnderFaults) {
  EXPECT_EQ(ChurnyHostMetricsJson(false, 64, 42, kFaultSpec),
            ChurnyHostMetricsJson(true, 64, 42, kFaultSpec));
}

}  // namespace
}  // namespace demeter
