// One run of one simulator benchmark workload, timed from outside.
//
// Usage: perfbench_sim --workload NAME --seed N [--spans FILE]
//
// Builds the workload as an ExperimentSpec, seeds it with DeriveSeed (as the
// experiment runner does), then drives Machine / Cluster directly so set-up,
// the main loop, the results snapshot and teardown are timed apart. Prints
// one JSON record on stdout: host times, the simulated results, the counter
// totals the per-layer metrics are computed from, and the facts the output
// checks need. perfbench/run.py turns records into metrics.
//
// With --spans the run is traced: every call the benchmark makes into a
// module's public functions becomes a span, and a second root ("twin")
// replays the layers the main loop cannot expose from outside on throwaway
// twin machines built from the same spec. Spans are kept in memory and
// written to FILE at exit. Without --spans the real run makes exactly the
// same calls, so its simulated output is identical.

#include <time.h>

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "src/base/histogram.h"
#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/cluster/cluster.h"
#include "src/runner/experiment.h"
#include "src/telemetry/json.h"

namespace demeter {
namespace {

// ---- workloads ---------------------------------------------------------------

constexpr int kVcpus = 2;
// Virtual-time width of one harness.step slice on single-host workloads.
constexpr Nanos kSlice = 10 * kMillisecond;

MachineConfig HostConfig(uint64_t vm_bytes, int num_vms, double bw_scale) {
  MachineConfig config;
  const uint64_t n = static_cast<uint64_t>(num_vms);
  // Each VM's 1:5 FMEM share plus 25% headroom; ample PMem so ballooned-up
  // VMs fit (the bench/ hosts' sizing).
  const uint64_t fmem =
      PageCeil(static_cast<uint64_t>(static_cast<double>(vm_bytes * n) * 0.2 * 1.25));
  config.tiers = {TierSpec::LocalDram(fmem), TierSpec::Pmem(vm_bytes * n * 2)};
  for (TierSpec& tier : config.tiers) {
    tier.read_bw_mbps *= bw_scale;
    tier.write_bw_mbps *= bw_scale;
  }
  return config;
}

VmSetup Tenant(const char* workload, uint64_t vm_bytes, uint64_t transactions,
               PolicyKind policy, ProvisionMode provision) {
  VmSetup setup;
  setup.vm.total_memory_bytes = vm_bytes;
  setup.vm.fmem_ratio = 0.2;
  setup.vm.num_vcpus = kVcpus;
  setup.workload = workload;
  setup.footprint_bytes = PageFloor(vm_bytes * 3 / 4);
  setup.target_transactions = transactions;
  setup.policy = policy;
  setup.provision = provision;
  setup.policy_period = 15 * kMillisecond;
  setup.demeter.range.epoch_length = 10 * kMillisecond;
  setup.demeter.sample_period = 97;
  setup.demeter.range.split_threshold = 4.0;
  setup.timeline_bucket = 25 * kMillisecond;
  return setup;
}

// kv-zipf: 3 silo VMs (YCSB, drifting zipfian, read-modify-write) under
// Demeter with the double balloon on one PMem host.
ExperimentSpec KvZipf() {
  constexpr uint64_t kVmBytes = 32 * kMiB;
  ExperimentSpec spec;
  spec.name = "perfbench/kv-zipf";
  spec.tag = "kv-zipf";
  spec.config = HostConfig(kVmBytes, 3, 1.0);
  for (int v = 0; v < 3; ++v) {
    spec.vms.push_back(Tenant("silo", kVmBytes, 120000, PolicyKind::kDemeter,
                              ProvisionMode::kDemeterBalloon));
  }
  return spec;
}

// dense-scan: 64 small read-only btree tenants alternating TPP / TPP-H,
// every 8th booting late and every 5th departing on finish. Tier bandwidth
// scales with the tenant count (per-tenant share of a 16-tenant host, as
// bench/dense_host does) so the host stays out of queueing saturation.
ExperimentSpec DenseScan() {
  constexpr int kTenants = 64;
  constexpr uint64_t kVmBytes = 16 * kMiB;
  ExperimentSpec spec;
  spec.name = "perfbench/dense-scan";
  spec.tag = "dense-scan";
  spec.config = HostConfig(kVmBytes, kTenants, kTenants / 16.0);
  for (int v = 0; v < kTenants; ++v) {
    VmSetup setup = Tenant("btree", kVmBytes, 60000,
                           v % 2 == 0 ? PolicyKind::kTpp : PolicyKind::kHTpp,
                           ProvisionMode::kStatic);
    if (v % 8 == 7) {
      setup.boot_at = 5 * kMillisecond * static_cast<Nanos>(1 + v % 4);
    }
    if (v % 5 == 4) {
      setup.depart_on_finish = true;
    }
    spec.vms.push_back(setup);
  }
  return spec;
}

// fleet-ha: 4 hosts x 8 silo VMs under Demeter with fleet_availability's
// schedule shape (even hosts fail-stop, FMEM shrink windows on them,
// migratefail everywhere) and restart + migration retry on. The even hosts
// fail at every barrier they are up (p=1 where fleet_availability draws
// 0.5), so every seed kills the same 20 VMs at the first barrier, before
// they commit work: the kill count, and with it the VM incarnations and the
// peak resident set, do not depend on the seed. The pre-copy path stays
// idle here; the twin pair times ExtractVm/AdoptVm instead.
constexpr int kFleetHosts = 4;
constexpr int kFleetVms = 32;

ExperimentSpec FleetHa() {
  constexpr uint64_t kVmBytes = 16 * kMiB;
  ExperimentSpec spec;
  spec.name = "perfbench/fleet-ha";
  spec.tag = "fleet-ha";
  // Survivors absorb a failed host's tenants, so hosts are sized for twice
  // their fair share.
  spec.config = HostConfig(kVmBytes, 2 * kFleetVms / kFleetHosts, 1.0);
  spec.cluster.num_hosts = kFleetHosts;
  spec.cluster.placement = PlacementPolicy::kFirstFit;
  spec.cluster.epoch = 2 * kMillisecond;
  spec.cluster.migration.stop_copy_pages = 512;
  spec.cluster.migration.max_precopy_rounds = 2;
  spec.cluster.migration.max_retries = 3;
  spec.cluster.migration.retry_backoff_epochs = 2;
  std::string shared;
  for (int h = 0; h < kFleetHosts; ++h) {
    shared += (h == 0 ? "" : ",") + std::string("migratefail=0.3/1ms@") + std::to_string(h);
    if (h % 2 == 0) {
      shared += ",hostfail=1/8ms@" + std::to_string(h);
    }
  }
  std::string error;
  const std::optional<FaultPlan> plan = FaultPlan::Parse(shared, &error);
  DEMETER_CHECK(plan.has_value()) << error;
  const std::optional<FaultPlan> shrink = FaultPlan::Parse("tiershrink=0.3/6ms/20ms@0", &error);
  DEMETER_CHECK(shrink.has_value()) << error;
  spec.config.faults = *plan;
  spec.cluster.host_faults = {*shrink, FaultPlan{}};
  for (int v = 0; v < kFleetVms; ++v) {
    spec.vms.push_back(Tenant("silo", kVmBytes, 40000, PolicyKind::kDemeter,
                              ProvisionMode::kDemeterBalloon));
  }
  return spec;
}

std::optional<ExperimentSpec> SpecFor(std::string_view workload) {
  if (workload == "kv-zipf") return KvZipf();
  if (workload == "dense-scan") return DenseScan();
  if (workload == "fleet-ha") return FleetHa();
  return std::nullopt;
}

// ---- spans -------------------------------------------------------------------

double WallNow() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Span {
  const char* name = "";  // A string literal: recording a span never allocates.
  int parent = -1;        // Index into the log; -1 for a root.
  double start = 0.0;
  double end = 0.0;
  uint64_t work = 0;  // Units of work the span covered (ops, draws, accesses).
};

// In-memory span log. Phase spans are always kept (their durations are the
// end-to-end timings); `detail` spans — one per slice or replayed call —
// only when the run is traced.
class SpanLog {
 public:
  explicit SpanLog(bool traced) : traced_(traced) {
    if (traced) {
      spans_.reserve(1 << 14);  // Replays stay clear of reallocation.
    }
  }

  int Begin(const char* name, int parent, bool detail = false) {
    if (detail && !traced_) {
      return -1;
    }
    spans_.push_back(Span{name, parent, WallNow(), 0.0, 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id, uint64_t work = 0) {
    if (id < 0) {
      return;
    }
    Span& span = spans_[static_cast<size_t>(id)];
    span.end = WallNow();
    span.work = work;
  }
  // Work counted after the span closed, so counting stays out of its time.
  void SetWork(int id, uint64_t work) {
    if (id >= 0) {
      spans_[static_cast<size_t>(id)].work = work;
    }
  }
  double Seconds(int id) const {
    const Span& span = spans_[static_cast<size_t>(id)];
    return span.end - span.start;
  }
  bool traced() const { return traced_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool traced_;
  std::vector<Span> spans_;
};

// ---- results -----------------------------------------------------------------

// Percentile interpolated linearly between the edges of the neighbouring
// non-empty buckets, using only Histogram::Percentile: the bucketed value
// alone repeats across seeds, which hides real movement below the bucket
// width. Exact at bucket edges; always within the p-th sample's bucket span.
double InterpolatedPercentile(const Histogram& h, double p) {
  const uint64_t n = h.count();
  if (n == 0) {
    return 0.0;
  }
  const uint64_t upper = h.Percentile(p);
  // Largest q with Percentile(q) <= upper (resp. < upper) gives the count
  // through (resp. below) the p-th sample's bucket.
  auto sup = [](double lo, double hi, auto&& pred) {
    if (pred(hi)) {
      return hi;
    }
    for (int i = 0; i < 80; ++i) {
      const double mid = 0.5 * (lo + hi);
      (pred(mid) ? lo : hi) = mid;
    }
    return lo;
  };
  const double q_hi = sup(p, 100.0, [&](double q) { return h.Percentile(q) <= upper; });
  const bool first_bucket = h.Percentile(1e-12) == upper;
  const double q_lo =
      first_bucket ? 0.0 : sup(1e-12, p, [&](double q) { return h.Percentile(q) < upper; });
  const double nn = static_cast<double>(n);
  const double c_hi = std::round(q_hi / 100.0 * nn);
  const double c_lo = std::round(q_lo / 100.0 * nn);
  const double lower = first_bucket ? static_cast<double>(h.min()) - 1.0
                                    : static_cast<double>(h.Percentile(q_lo));
  if (c_hi <= c_lo) {
    return static_cast<double>(upper);
  }
  const double frac = std::clamp((p / 100.0 * nn - c_lo) / (c_hi - c_lo), 0.0, 1.0);
  return std::max(lower + (static_cast<double>(upper) - lower) * frac,
                  static_cast<double>(h.min()));
}

constexpr const char* kStageNames[kNumTmmStages] = {"tracking", "classification", "migration",
                                                    "pmi", "other"};

struct SimSummary {
  double txn_per_s = 0.0;
  double mgmt_cores = 0.0;
  Histogram latency;
  double stage_ms[kNumTmmStages] = {};
  std::vector<uint64_t> transactions;
  std::vector<uint64_t> targets;

  void Add(const VmRunResult& r, uint64_t target) {
    txn_per_s += r.ThroughputTps();
    mgmt_cores += r.MgmtCores();
    latency.Merge(r.txn_latency_ns);
    for (int s = 0; s < kNumTmmStages; ++s) {
      stage_ms[s] += static_cast<double>(r.mgmt.ForStage(static_cast<TmmStage>(s))) / 1e6;
    }
    transactions.push_back(r.transactions);
    targets.push_back(target);
  }
};

// Counter totals keyed by the path below "vm<i>/" (per-VM trees, summed over
// VMs and hosts) or verbatim (host and cluster trees). A live migration
// carries a VM's stats/ and mgmt/ trees to its destination, so those sum
// only over slots the VM did not migrate out of — every incarnation
// exactly once, a killed one included. Everything else is per slot.
std::map<std::string, uint64_t> CounterTotals(const MetricSnapshot& snapshot) {
  std::map<std::string, bool> migrated_out;  // Keyed by "[host<h>/]vm<i>/".
  auto vm_prefix = [](const std::string& name) -> size_t {
    size_t at = 0;
    if (name.rfind("host", 0) == 0 && name.size() > 4 && name[4] != '/') {
      at = name.find('/') + 1;  // Multi-host names: "host<h>/vm<i>/...".
    }
    if (name.compare(at, 2, "vm") != 0) {
      return std::string::npos;
    }
    const size_t slash = name.find('/', at);
    return slash == std::string::npos ? std::string::npos : slash + 1;
  };
  for (const MetricSample& sample : snapshot.samples()) {
    const size_t cut = vm_prefix(sample.name);
    if (cut != std::string::npos &&
        std::string_view(sample.name).substr(cut) == "lifecycle/migrated_out") {
      migrated_out[sample.name.substr(0, cut)] = sample.counter > 0;
    }
  }
  std::map<std::string, uint64_t> totals;
  for (const MetricSample& sample : snapshot.samples()) {
    if (sample.kind != MetricKind::kCounter) {
      continue;
    }
    const size_t cut = vm_prefix(sample.name);
    if (cut == std::string::npos) {
      totals[sample.name] += sample.counter;
      continue;
    }
    const std::string path = sample.name.substr(cut);
    const bool carried = path.rfind("stats/", 0) == 0 || path.rfind("mgmt/", 0) == 0;
    if (carried && migrated_out[sample.name.substr(0, cut)]) {
      continue;
    }
    totals[path] += sample.counter;
  }
  return totals;
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

uint64_t MachineAccesses(Machine& machine) {
  uint64_t total = 0;
  for (int i = 0; i < machine.num_vms(); ++i) {
    total += machine.vm(i).stats().accesses;
  }
  return total;
}

// First horizon strictly past the machine's clock on the slice grid.
Nanos NextSlice(const Machine& machine) { return (machine.MinActiveClock() / kSlice + 1) * kSlice; }

struct RealRun {
  SimSummary sim;
  std::map<std::string, uint64_t> totals;
  uint64_t snapshot_hash = 0;
  uint64_t loop_accesses = 0;
  double setup_s = 0.0;
  double loop_s = 0.0;
  double loop_cpu_s = 0.0;
  double wall_s = 0.0;
  int vms_booted_at_start = 0;
};

// The measured run. Root span "run"; children cover it end to end.
RealRun RunReal(const ExperimentSpec& spec, SpanLog& log) {
  RealRun out;
  MachineConfig config = spec.config;
  config.seed = DeriveSeed(spec);
  const bool fleet = spec.cluster.num_hosts > 0;
  MetricSnapshot snapshot;
  std::string json;

  const int root = log.Begin("run", -1);
  const int build = log.Begin("harness.build", root);
  std::unique_ptr<Machine> machine;
  std::unique_ptr<Cluster> cluster;
  if (fleet) {
    cluster = std::make_unique<Cluster>(config, spec.cluster);
    for (const VmSetup& setup : spec.vms) {
      cluster->AddVm(setup);
    }
  } else {
    machine = std::make_unique<Machine>(config);
    for (const VmSetup& setup : spec.vms) {
      machine->AddVm(setup);
    }
  }
  log.End(build, spec.vms.size());
  out.setup_s = log.Seconds(build);

  uint64_t setup_accesses = 0;
  int loop_span = -1;  // cluster.run; slices carry their own work.
  if (fleet) {
    const double cpu0 = CpuNow();
    loop_span = log.Begin("cluster.run", root);
    cluster->Run();
    log.End(loop_span);
    out.loop_cpu_s = CpuNow() - cpu0;
    out.loop_s = log.Seconds(loop_span);
  } else {
    const int start = log.Begin("harness.start_run", root);
    machine->StartRun();
    for (int i = 0; i < machine->num_vms(); ++i) {
      out.vms_booted_at_start += machine->VmActive(i) ? 1 : 0;
    }
    log.End(start, static_cast<uint64_t>(out.vms_booted_at_start));
    out.setup_s += log.Seconds(start);
    setup_accesses = MachineAccesses(*machine);

    // Main loop in fixed virtual-time slices. Untraced runs make the same
    // StepUntil calls without keeping a span per slice.
    const double cpu0 = CpuNow();
    const double wall0 = WallNow();
    uint64_t before = setup_accesses;
    for (;;) {
      const int step = log.Begin("harness.step", root, /*detail=*/true);
      const bool more = machine->StepUntil(NextSlice(*machine));
      log.End(step);
      if (step >= 0) {
        const uint64_t now_accesses = MachineAccesses(*machine);
        log.SetWork(step, now_accesses - before);
        before = now_accesses;
      }
      if (!more) {
        break;
      }
    }
    out.loop_s = WallNow() - wall0;
    out.loop_cpu_s = CpuNow() - cpu0;
    const int finish = log.Begin("harness.finish_run", root);
    machine->FinishRun();
    log.End(finish);
  }

  const int snap = log.Begin("telemetry.snapshot", root);
  snapshot = fleet ? cluster->SnapshotMetrics() : machine->SnapshotMetrics();
  log.End(snap);
  const int to_json = log.Begin("telemetry.json", root);
  json = snapshot.ToJson();
  log.End(to_json, json.size());

  const int collect = log.Begin("bench.collect", root);
  for (size_t i = 0; i < spec.vms.size(); ++i) {
    const int vi = static_cast<int>(i);
    out.sim.Add(fleet ? cluster->result(vi) : machine->result(vi),
                spec.vms[i].target_transactions);
  }
  out.totals = CounterTotals(snapshot);
  out.snapshot_hash = Fnv1a(json);
  out.loop_accesses = out.totals["stats/accesses"] - setup_accesses;
  log.SetWork(loop_span, out.loop_accesses);
  log.End(collect);

  const int teardown = log.Begin("harness.teardown", root);
  machine.reset();
  cluster.reset();
  snapshot = MetricSnapshot();
  json.clear();
  json.shrink_to_fit();
  log.End(teardown);
  log.End(root);
  out.wall_s = log.Seconds(root);
  return out;
}

// ---- twin replays (traced runs only) ----------------------------------------

constexpr uint64_t kReplayOps = 1u << 20;  // Ops generated + executed per twin.
constexpr size_t kReplayVms = 8;
constexpr uint64_t kZipfDraws = 1u << 20;
constexpr int kBatchesPerTurn = 8;
constexpr int kTwinTransfers = 2;  // Migrations and kills timed per twin pair.
constexpr int kFleetTwinSlices = 5;

// Machine twins of the spec's host: the whole spec for a single host; one
// host's share of the fleet (fault-free) for a cluster.
std::unique_ptr<Machine> BuildTwin(const ExperimentSpec& spec, uint64_t seed) {
  MachineConfig config = spec.config;
  config.seed = seed;
  size_t vms = spec.vms.size();
  if (spec.cluster.num_hosts > 0) {
    config.faults = FaultPlan{};
    vms /= static_cast<size_t>(spec.cluster.num_hosts);
  }
  auto twin = std::make_unique<Machine>(config);
  for (size_t i = 0; i < vms; ++i) {
    twin->AddVm(spec.vms[i]);
  }
  return twin;
}

void RunTwins(const ExperimentSpec& spec, SpanLog& log) {
  const uint64_t seed = DeriveSeed(spec);
  const bool fleet = spec.cluster.num_hosts > 0;
  const int root = log.Begin("twin", -1);

  const int build = log.Begin("twin.build", root);
  std::unique_ptr<Machine> a = BuildTwin(spec, seed);
  std::unique_ptr<Machine> b = BuildTwin(spec, seed + 1);
  log.End(build, 2);
  for (Machine* twin : {a.get(), b.get()}) {
    const int start = log.Begin("twin.start_run", root);
    twin->StartRun();
    log.End(start);
    uint64_t booted = 0;
    for (int i = 0; i < twin->num_vms(); ++i) {
      booted += twin->VmActive(i) ? 1 : 0;
    }
    log.SetWork(start, booted);
  }
  const int original_vms = a->num_vms();

  if (fleet) {
    // The fleet's main loop is one Cluster::Run; twin host b stepped in
    // epoch slices (well short of its VMs' targets) stands in for
    // harness.step.
    uint64_t before = MachineAccesses(*b);
    for (int s = 0; s < kFleetTwinSlices; ++s) {
      const int step = log.Begin("harness.step", root);
      const bool more = b->StepUntil(b->MinActiveClock() + spec.cluster.epoch);
      log.End(step);
      const uint64_t after = MachineAccesses(*b);
      log.SetWork(step, after - before);
      before = after;
      if (!more) {
        break;
      }
    }
  }

  // Control plane on the twin pair: stop-and-copy b -> a, then kills on b.
  int transfers = 0;
  int kills = 0;
  for (int i = 0; i < b->num_vms() && kills < kTwinTransfers; ++i) {
    if (!b->VmActive(i)) {
      continue;
    }
    if (transfers < kTwinTransfers) {
      const int span = log.Begin("harness.migrate", root);
      MigratedVm moved = b->ExtractVm(i, b->MinActiveClock());
      a->AdoptVm(std::move(moved), a->MinActiveClock(), 0.0);
      log.End(span, 1);
      ++transfers;
    } else {
      const int span = log.Begin("harness.kill", root);
      b->KillVm(i, b->MinActiveClock());
      log.End(span, 1);
      ++kills;
    }
  }

  // Generator and access pipeline, replayed call by call on up to
  // kReplayVms of a's own VMs with one reused buffer; the machine's own loop
  // never runs here. Each vCPU gets a quantum-sized turn of batches, as in
  // the main loop, and each VM enough turns to leave its cold start behind.
  std::vector<int> replay_vms;
  for (int i = 0; i < original_vms && replay_vms.size() < kReplayVms; ++i) {
    if (a->VmActive(i)) {
      replay_vms.push_back(i);
    }
  }
  DEMETER_CHECK(!replay_vms.empty()) << "twin has no active VM to replay";
  Rng rng(seed ^ 0x7e57ab1e5eedULL);
  std::vector<AccessOp> batch;
  std::vector<BatchStep> steps;
  const size_t batch_ops = spec.config.batch_ops;
  uint64_t replayed = 0;
  while (replayed < kReplayOps) {
    for (const int i : replay_vms) {
      Vm& vm = a->vm(i);
      GuestProcess& process = *vm.kernel().processes().front();
      for (int turn = 0; turn < vm.num_vcpus() * kBatchesPerTurn; ++turn) {
        const int v = turn / kBatchesPerTurn;
        batch.clear();
        const int gen = log.Begin("workloads.next_batch", root);
        a->workload(i)->NextBatch(v, batch_ops, rng, &batch);
        log.End(gen, batch.size());
        steps.resize(std::max(steps.size(), batch.size()));
        const int exec = log.Begin("hyper.execute_batch", root);
        const size_t done = vm.ExecuteBatch(v, process, batch,
                                            std::numeric_limits<double>::infinity(),
                                            steps.data());
        log.End(exec, done);
        replayed += done;
      }
    }
  }

  // Rng::NextZipf at silo's two (n, theta) pairs for this workload's VM
  // footprint (SiloYcsb: 1/16 index at 64 B slots, theta 0.6; 1 KiB records,
  // theta 0.9), interleaved 3:4 like one silo transaction. dense-scan's
  // btree never draws Zipf, so there this is a control.
  const uint64_t footprint = spec.vms.front().footprint_bytes;
  const uint64_t index_bytes = PageCeil(footprint / 16);
  const uint64_t index_slots = index_bytes / 64;
  const uint64_t records = (footprint - index_bytes) / 1024;
  Rng zipf_rng(seed);
  uint64_t sink = 0;
  const int zipf = log.Begin("base.rng_zipf", root);
  for (uint64_t d = 0; d < kZipfDraws; d += 7) {
    for (int k = 0; k < 3; ++k) sink += zipf_rng.NextZipf(index_slots, 0.6);
    for (int k = 0; k < 4; ++k) sink += zipf_rng.NextZipf(records, 0.9);
  }
  log.End(zipf, (kZipfDraws + 6) / 7 * 7);
  DEMETER_CHECK_NE(sink, 0u);

  if (!fleet) {
    // Cluster::Run on a one-host cluster of the same spec at 1/8 of the
    // transaction targets: the cluster wrapper's cost per access where
    // the real run has no cluster.
    ExperimentSpec small = spec;
    for (VmSetup& setup : small.vms) {
      setup.target_transactions = std::max<uint64_t>(1, setup.target_transactions / 8);
    }
    ClusterSetup one_host;
    one_host.num_hosts = 1;
    MachineConfig config = small.config;
    config.seed = seed + 2;
    Cluster cluster(config, one_host);
    for (const VmSetup& setup : small.vms) {
      cluster.AddVm(setup);
    }
    const int run = log.Begin("cluster.run", root);
    cluster.Run();
    log.End(run);
    log.SetWork(run, CounterTotals(cluster.SnapshotMetrics())["stats/accesses"]);
  }

  const int teardown = log.Begin("twin.teardown", root);
  a.reset();
  b.reset();
  log.End(teardown);
  log.End(root);
}

// ---- output ------------------------------------------------------------------

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model.erase(model.find_last_not_of(std::string(" \0", 2)) + 1);
    model.erase(0, model.find_first_not_of(' '));
    return model;
  }
#endif
  return "unknown";
}

void AppendQuoted(std::string& out, std::string_view s) {
  out += '"';
  AppendJsonEscaped(out, s);
  out += '"';
}

void AppendNumber(std::string& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

std::string RecordJson(std::string_view workload, uint64_t seed, const RealRun& run,
                       double peak_rss_mib) {
  std::string out = "{\"workload\":";
  AppendQuoted(out, workload);
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"stamp\":{\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"cpu\":";
  AppendQuoted(out, CpuModel());
  out += ",\"compiler\":";
  AppendQuoted(out, PERFBENCH_COMPILER);
  out += ",\"build_type\":";
  AppendQuoted(out, PERFBENCH_BUILD_TYPE);
  out += "},\"host\":{\"setup_s\":";
  AppendNumber(out, run.setup_s);
  out += ",\"loop_s\":";
  AppendNumber(out, run.loop_s);
  out += ",\"loop_cpu_s\":";
  AppendNumber(out, run.loop_cpu_s);
  out += ",\"wall_s\":";
  AppendNumber(out, run.wall_s);
  out += ",\"peak_rss_mib\":";
  AppendNumber(out, peak_rss_mib);
  out += "},\"loop_accesses\":" + std::to_string(run.loop_accesses);
  out += ",\"vms_booted_at_start\":" + std::to_string(run.vms_booted_at_start);
  const SimSummary& sim = run.sim;
  out += ",\"sim\":{\"txn_per_s\":";
  AppendNumber(out, sim.txn_per_s);
  out += ",\"p50_txn_us\":";
  AppendNumber(out, InterpolatedPercentile(sim.latency, 50.0) / 1e3);
  out += ",\"p99_txn_us\":";
  AppendNumber(out, InterpolatedPercentile(sim.latency, 99.0) / 1e3);
  out += ",\"txn_samples\":" + std::to_string(sim.latency.count());
  out += ",\"mgmt_cores\":";
  AppendNumber(out, sim.mgmt_cores);
  out += ",\"mgmt_ms\":{";
  for (int s = 0; s < kNumTmmStages; ++s) {
    out += s == 0 ? "\"" : ",\"";
    out += kStageNames[s];
    out += "\":";
    AppendNumber(out, sim.stage_ms[s]);
  }
  out += "},\"snapshot_fnv\":\"" + std::to_string(run.snapshot_hash) + "\"}";
  out += ",\"vms\":[";
  for (size_t i = 0; i < sim.transactions.size(); ++i) {
    out += i == 0 ? "[" : ",[";
    out += std::to_string(sim.transactions[i]) + "," + std::to_string(sim.targets[i]) + "]";
  }
  out += "],\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : run.totals) {
    out += first ? "" : ",";
    first = false;
    AppendQuoted(out, name);
    out += ':';
    out += std::to_string(value);
  }
  out += "}}";
  return out;
}

bool WriteSpans(const std::string& path, const SpanLog& log) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::string out = "[";
  const double t0 = log.spans().empty() ? 0.0 : log.spans().front().start;
  for (size_t i = 0; i < log.spans().size(); ++i) {
    const Span& span = log.spans()[i];
    out += i == 0 ? "\n{\"name\":" : ",\n{\"name\":";
    AppendQuoted(out, span.name);
    out += ",\"parent\":" + std::to_string(span.parent) + ",\"start_us\":";
    AppendNumber(out, (span.start - t0) * 1e6);
    out += ",\"end_us\":";
    AppendNumber(out, (span.end - t0) * 1e6);
    out += ",\"work\":" + std::to_string(span.work) + "}";
  }
  out += "\n]\n";
  const bool ok = std::fwrite(out.data(), 1, out.size(), file) == out.size();
  return std::fclose(file) == 0 && ok;
}

// The process's own high-water resident set. getrusage's ru_maxrss would
// also count the parent's image at exec, which a launcher inflates.
double PeakRssMib() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status != nullptr) {
    char line[256];
    unsigned long long kib = 0;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) {
        break;
      }
    }
    std::fclose(status);
    if (kib > 0) {
      return static_cast<double>(kib) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int Usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --workload kv-zipf|dense-scan|fleet-ha --seed N [--spans FILE]\n",
               prog);
  return 2;
}

int Main(int argc, char** argv) {
  std::optional<ExperimentSpec> spec;
  std::string workload;
  std::optional<uint64_t> seed;
  std::string spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
      spec = SpecFor(workload);
    } else if (flag == "--seed") {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') {
        return Usage(argv[0]);
      }
      seed = parsed;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !spec.has_value() || !seed.has_value()) {
    return Usage(argv[0]);
  }

  spec->config.seed = *seed;
  SpanLog log(!spans_path.empty());
  const RealRun run = RunReal(*spec, log);
  if (log.traced()) {
    RunTwins(*spec, log);
    if (!WriteSpans(spans_path, log)) {
      std::fprintf(stderr, "cannot write spans to '%s'\n", spans_path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", RecordJson(workload, *seed, run, PeakRssMib()).c_str());
  return 0;
}

}  // namespace
}  // namespace demeter

int main(int argc, char** argv) { return demeter::Main(argc, argv); }
