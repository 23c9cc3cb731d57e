// Experiment harness: builds a host with N virtual machines, provisions
// their tiered memory (static / VirtIO balloon / Demeter balloon / hotplug),
// attaches a TMM policy per VM, and drives the workloads to a transaction
// target in lock-stepped vCPU quanta over shared virtual time.
//
// Benches, tools and examples build their hosts from this class: through
// the experiment runner (src/runner), through Cluster (src/cluster) for
// fleets, or by driving a Machine directly. Only the micro-benchmarks and
// examples/cloud_consolidation drive a Hypervisor without one.

#ifndef DEMETER_SRC_HARNESS_MACHINE_H_
#define DEMETER_SRC_HARNESS_MACHINE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/balloon/balloon.h"
#include "src/base/histogram.h"
#include "src/core/api.h"
#include "src/fault/fault.h"
#include "src/fault/invariant_checker.h"
#include "src/hyper/overcommit.h"
#include "src/hyper/vm.h"
#include "src/hyper/vm_image.h"
#include "src/swap/swap_device.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/tracer.h"
#include "src/workloads/workload.h"

namespace demeter {

enum class PolicyKind {
  kStatic,
  kDemeter,
  kTpp,
  kHTpp,
  kMemtis,
  kNomad,
  kDamon,
};

const char* PolicyKindName(PolicyKind kind);
PolicyKind PolicyKindFromName(const std::string& name);

enum class ProvisionMode {
  kStatic,          // Nodes boot at the target sizes.
  kVirtioBalloon,   // Boot at 100%+100%; classic balloon trims (tier-blind).
  kDemeterBalloon,  // Boot at 100%+100%; double balloon trims per node.
  kHotplug,         // Boot at 100%+100%; block-granular unplug.
};

const char* ProvisionModeName(ProvisionMode mode);

struct MachineConfig {
  std::vector<TierSpec> tiers;
  size_t batch_ops = 512;  // Ops fetched from the workload generator at a time.
  uint64_t seed = 42;
  // Record trace events (TLB flushes, PMI drains, migration batches,
  // balloon completions, QoS rounds). Pure observability: MUST NOT affect
  // simulation results.
  bool capture_trace = false;
  // Fault schedule (parsed from --faults). Empty = no injector is created
  // and every fault hook stays inert.
  FaultPlan faults;
  // Audit cross-layer invariants after provisioning and after every main-
  // loop event drain, aborting on violation. Read-only observability like
  // capture_trace.
  bool check_invariants = false;
  // Far swap tier device model; consulted only when `tiers` has more than
  // kSwapTier entries (three-tier hosts). Two-tier machines never create
  // the device, so these knobs are inert there. seed 0 = derive from the
  // machine seed.
  SwapDeviceConfig swap;
  // FMEM overcommit arbitration (double-balloon spill scheduler). Off by
  // default; benches that oversubscribe FMEM turn it on.
  OvercommitConfig overcommit;
};

// Hard cap on a VM's throughput-timeline length. A vCPU parked far past its
// last bucket (a long stall/crash window, or an extreme timeline_bucket
// choice) used to grow `timeline` by resize(bucket + 1) without bound;
// transactions landing beyond the cap all accumulate in the final bucket.
inline constexpr size_t kMaxTimelineBuckets = size_t{1} << 20;

struct VmSetup {
  VmConfig vm;
  std::string workload = "gups";
  uint64_t footprint_bytes = 48 * kMiB;
  uint64_t target_transactions = 500000;
  PolicyKind policy = PolicyKind::kStatic;
  ProvisionMode provision = ProvisionMode::kStatic;
  // Scan/classify period for the baseline policies (TPP/H-TPP/Memtis/Nomad).
  // Scaled-down simulations shrink this together with everything else.
  Nanos policy_period = 100 * kMillisecond;
  // Overrides applied to the Demeter policy when used.
  DemeterConfig demeter;
  // Virtual-time bucket for the throughput timeline.
  Nanos timeline_bucket = 100 * kMillisecond;
  // ---- lifecycle churn ----------------------------------------------------
  // 0 = boot with the machine (the default). Non-zero: the VM is created up
  // front but boots mid-run, once global virtual time reaches `boot_at` —
  // provisioning, workload setup, and policy attach all happen then. Must
  // be below kVcpuClockLimitNs.
  Nanos boot_at = 0;
  // Tear the VM down (full resource reclaim, audited) as soon as it reaches
  // its transaction target, instead of idling until the run ends.
  bool depart_on_finish = false;
};

struct VmRunResult {
  std::string workload;
  std::string policy;
  uint64_t transactions = 0;
  double elapsed_s = 0.0;  // Virtual seconds from run start to target.
  TlbStats tlb;
  VmStats vm_stats;
  CpuAccount mgmt;
  Histogram txn_latency_ns;
  // transactions completed per timeline bucket (throughput series).
  std::vector<uint64_t> timeline;
  Nanos timeline_bucket = 0;
  double fmem_access_fraction = 0.0;
  // Registry snapshot scoped to this VM ("vm<i>/" prefix stripped), taken
  // when the VM reaches its transaction target.
  MetricSnapshot metrics;

  double ThroughputTps() const { return elapsed_s > 0 ? transactions / elapsed_s : 0.0; }
  // Management cores consumed over the run (Figure 2's metric).
  double MgmtCores() const {
    return elapsed_s > 0 ? ToSeconds(mgmt.Total()) / elapsed_s : 0.0;
  }
};

// One vCPU's place in its workload stream and in its current transaction.
// The harness keeps one per vCPU while the VM runs, and a live migration
// carries them to the destination.
struct VcpuProgress {
  std::vector<AccessOp> batch;  // Ops fetched from the workload generator.
  size_t batch_pos = 0;         // Next op of `batch` to execute.
  int ops_in_txn = 0;           // Ops so far in the current transaction.
  double txn_latency_ns = 0.0;  // Summed op costs of the current transaction.
};

// Everything a live migration carries between Machines: the resolved setup,
// the workload generator (its internal cursor keeps streaming where it left
// off), the captured memory image, accumulated stats/accounts, per-vCPU
// clocks and progress, and the partial result series built so far.
// Produced by Machine::ExtractVm on the source; consumed exactly once by
// Machine::AdoptVm on the destination.
struct MigratedVm {
  VmSetup setup;
  std::unique_ptr<Workload> workload;
  VmMemoryImage image;
  VmStats stats;
  CpuAccount mgmt;
  TlbStats tlb;  // Whole-life aggregate (includes earlier migrations).
  std::vector<double> vcpu_clock_ns;
  std::vector<Nanos> next_context_switch;
  std::vector<VcpuProgress> progress;
  uint64_t transactions = 0;
  Nanos start_time = 0;
  Histogram txn_latency_hist;
  std::vector<uint64_t> timeline;
};

class Machine {
 public:
  explicit Machine(MachineConfig config);
  ~Machine();

  // Adds a VM; returns its index. Call before Run().
  int AddVm(const VmSetup& setup);

  // Tears down a running (or finished) VM mid-run at virtual time `now`:
  // stops its policy, marks the Vm departed, reclaims every resource it
  // holds (GPT mappings, guest pages, EPT backings, TLB entries) through
  // Hypervisor::ReclaimVm, frees the storage those structures held
  // (Vm::ReleaseStorage), and audits invariants. The Vm object itself
  // stays alive — late events (balloon completions, policy timers) must
  // land on valid memory, and its counters stay readable — but holds
  // nothing.
  void RemoveVm(int i, Nanos now);

  // Fail-stop teardown of a running VM at `now` (its host died): every
  // in-progress transaction and all accumulated progress is lost, counted
  // in `vm<i>/lifecycle/killed` / `transactions_lost`, then the VM is torn
  // down like RemoveVm. Returns the transactions discarded — the cluster's
  // restart ledger charges them against the fleet.
  uint64_t KillVm(int i, Nanos now);

  // Replaces VM i's policy with a caller-provided instance (e.g. a custom
  // TmmPolicy subclass, or a built-in with bespoke configuration). Call
  // between AddVm and Run; the machine attaches it at run start.
  void SetCustomPolicy(int i, std::unique_ptr<TmmPolicy> policy);

  // Provisions, initializes, attaches policies, and runs every VM to its
  // transaction target. Exactly StartRun() + StepUntil(kNoHorizon) +
  // FinishRun() — the split exists so a Cluster can interleave hosts.
  void Run();

  // ---- cluster stepping ---------------------------------------------------
  // Phases 1-4 of Run(): provision, workload setup + init pass, clock
  // alignment, policy attach, metric registration. Marks the machine as
  // running; AddVm is no longer legal afterwards (use AdmitVm).
  void StartRun();
  // Runs the main loop until no VM is active (returns false — the machine
  // is done unless a VM is admitted later) or until every active VM's clock
  // has reached `horizon` (returns true). The loop body is byte-identical
  // to Run()'s: with horizon == kNoHorizon this IS Run()'s phase 5.
  bool StepUntil(Nanos horizon);
  // The end-of-run audit. Call once, after the final StepUntil.
  void FinishRun();
  static constexpr Nanos kNoHorizon = ~static_cast<Nanos>(0);

  // Minimum vCPU clock over active VMs (0 when none). Computed from the
  // clocks on every call: a walk over the VMs in id order.
  Nanos MinActiveClock() const;
  // True while VM i is booted and has not finished/departed.
  bool VmActive(int i) const {
    const VmRuntime& rt = runtimes_[static_cast<size_t>(i)];
    return rt.booted && !rt.finished;
  }
  // The number of VMs for which VmActive holds, counted on every call.
  int NumActiveVms() const;
  const VmSetup& vm_setup(int i) const { return setups_[static_cast<size_t>(i)]; }

  // ---- live migration -----------------------------------------------------
  // Adds a VM to a machine that is already running and boots it at `at`
  // (clamped forward to the event horizon like any mid-run boot); `at` and
  // `setup.boot_at` must be below kVcpuClockLimitNs. Returns the new VM's
  // index. `restarted` marks the admission as a post-failure reincarnation
  // in `vm<i>/lifecycle/restarts`.
  int AdmitVm(const VmSetup& setup, Nanos at, bool restarted = false);
  // Stop-and-copy extraction of a running VM at virtual time `now`: captures
  // its memory image and execution progress, then drains every resource it
  // held on this host (ReclaimVm — the departed-VM emptiness audit applies
  // from here on). The returned state must be handed to another machine's
  // AdoptVm exactly once.
  MigratedVm ExtractVm(int i, Nanos now);
  // Re-materializes a migrated VM on this (running) machine, charging
  // `extra_downtime_ns` (the stop-and-copy transfer) plus the restore cost
  // as downtime on every vCPU clock. The VM resumes with its carried
  // progress under a fresh policy instance (provision becomes kStatic: the
  // source host's balloon state does not travel). Returns the new index.
  int AdoptVm(MigratedVm&& vm, Nanos now, double extra_downtime_ns);

  const VmRunResult& result(int i) const { return results_[static_cast<size_t>(i)]; }
  int num_vms() const { return static_cast<int>(setups_.size()); }

  Hypervisor& hypervisor() { return *hyper_; }
  EventQueue& events() { return events_; }
  Vm& vm(int i) { return hyper_->vm(i); }
  TmmPolicy* policy(int i) { return policies_[static_cast<size_t>(i)].get(); }
  Workload* workload(int i) { return workloads_[static_cast<size_t>(i)].get(); }
  DemeterBalloon* demeter_balloon(int i) { return demeter_balloons_[static_cast<size_t>(i)].get(); }
  // The overcommit scheduler (null unless config.overcommit.enabled).
  OvercommitScheduler* overcommit() { return overcommit_.get(); }

  // Full name-sorted snapshot: "host/..." plus every "vm<i>/..." tree.
  MetricSnapshot SnapshotMetrics() const { return registry_.Snapshot(); }

  // The machine's tracer (enabled iff config.capture_trace). Events use
  // VM ids as pids. TakeTrace moves the recorded events out (e.g. into a
  // NamedTrace for ChromeTraceJson).
  Tracer& tracer() { return tracer_; }
  std::vector<TraceEvent> TakeTrace() { return tracer_.TakeEvents(); }

  // The machine's fault injector (null when config.faults is empty).
  FaultInjector* fault_injector() { return fault_injector_.get(); }

  // Runs the cross-layer invariant audit now and returns the report
  // (exposed for tests; Run() calls it at audit points when
  // config.check_invariants is set).
  InvariantReport CheckInvariants();

 private:
  // Per-VM lifecycle accounting, registered as `vm<i>/lifecycle/*`.
  struct LifecycleStats {
    uint64_t boots = 0;
    uint64_t departures = 0;
    uint64_t boot_ns = 0;    // Virtual time the VM booted.
    uint64_t depart_ns = 0;  // Virtual time the VM departed.
    uint64_t reclaimed_gpt_pages = 0;
    uint64_t reclaimed_gpa_pages = 0;
    uint64_t reclaimed_ept_pages = 0;
    uint64_t migrated_in = 0;   // VM arrived here via live migration.
    uint64_t migrated_out = 0;  // VM left this host via live migration.
    uint64_t killed = 0;        // VM died with its host (fail-stop).
    uint64_t restarts = 0;      // VM is a post-host-failure reincarnation.
    uint64_t transactions_lost = 0;  // Progress discarded by kills.
  };

  struct VmRuntime {
    GuestProcess* process = nullptr;
    std::vector<VcpuProgress> progress;  // Per vCPU.
    std::vector<BatchStep> steps;        // ExecuteBatch scratch.
    uint64_t transactions = 0;
    Nanos start_time = 0;
    bool booted = false;
    bool finished = false;
    LifecycleStats lifecycle;
    // TLB stats accumulated on previous hosts (migrated VMs only); FinishVm
    // merges these so result.tlb spans the VM's whole life.
    TlbStats migrated_tlb;
  };

  Nanos VmMinClock(int i) const;

  // VM lifecycle steps shared by StartRun (VMs that boot with the machine),
  // BootVm (mid-run boots), ExtractVm/AdoptVm (live migration) and RemoveVm
  // (departures).
  void ProvisionVm(int i, Nanos now);
  // Creates the guest process, sets the workload up in it, runs the init
  // pass and resets every vCPU's progress.
  void SetUpGuest(int i);
  void InitPass(int i);
  // Starts VM i's run at `start`: its start time, every vCPU clock and
  // context-switch tick, and a management account cleared of provisioning
  // and init-pass work.
  void StartClocks(int i, double start);
  // Attaches VM i's policy (a SetCustomPolicy instance, else a fresh one
  // built from its setup) at virtual time `at`.
  void AttachPolicy(int i, Nanos at);
  // Stops VM i's policy, marks it departed, reclaims everything it holds
  // here, frees the emptied structures' storage and takes it out of the
  // main loop at `now`. Returns what was reclaimed; the caller counts why
  // the VM left.
  Hypervisor::ReclaimResult TearDownVm(int i, Nanos now);

  void MaybeAuditInvariants(const char* where);
  void RunVmQuantum(int i);
  void FinishVm(int i, Nanos now);
  // Mid-run boot of a deferred VM at virtual time `at`: provision, workload
  // setup + init pass, policy attach, late policy-metric registration.
  void BootVm(int i, Nanos at);
  // AddVm minus the not-yet-running check, shared with AdmitVm/AdoptVm.
  int AddVmInternal(const VmSetup& setup);
  // One-time registration of every subsystem's metrics (host, VMs,
  // policies, balloons) — called from Run() once policies are attached.
  void RegisterAllMetrics();
  // VM i's share of RegisterAllMetrics (mid-run admissions register late).
  void RegisterVmMetricsFor(int i);

  MachineConfig config_;
  MetricRegistry registry_;
  Tracer tracer_;
  std::unique_ptr<FaultInjector> fault_injector_;
  std::unique_ptr<HostMemory> memory_;
  EventQueue events_;
  std::unique_ptr<Hypervisor> hyper_;
  std::unique_ptr<OvercommitScheduler> overcommit_;
  std::vector<VmSetup> setups_;
  std::vector<std::unique_ptr<Workload>> workloads_;
  std::vector<std::unique_ptr<TmmPolicy>> policies_;
  std::vector<std::unique_ptr<TmmPolicy>> custom_policies_;
  std::vector<std::unique_ptr<DemeterBalloon>> demeter_balloons_;
  std::vector<std::unique_ptr<VirtioBalloon>> virtio_balloons_;
  std::vector<std::unique_ptr<HotplugProvisioner>> hotplugs_;
  // Deque: lifecycle counters are registered by address, and mid-run
  // admissions (AdmitVm/AdoptVm) grow the container after registration.
  std::deque<VmRuntime> runtimes_;
  std::vector<VmRunResult> results_;
  Rng rng_;
  bool ran_ = false;
  // Latest event-drain horizon; mid-run boots never schedule behind it.
  Nanos event_horizon_ = 0;
};

// Builds a policy instance of the given kind. Demeter uses `demeter_config`;
// the baselines run their scans/classification every `policy_period`.
std::unique_ptr<TmmPolicy> MakePolicy(PolicyKind kind, const DemeterConfig& demeter_config,
                                      Nanos policy_period);

}  // namespace demeter

#endif  // DEMETER_SRC_HARNESS_MACHINE_H_
