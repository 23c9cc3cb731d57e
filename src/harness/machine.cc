#include "src/harness/machine.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/tmm/damon.h"
#include "src/tmm/htpp.h"
#include "src/tmm/memtis.h"
#include "src/tmm/nomad.h"
#include "src/tmm/static_policy.h"
#include "src/tmm/tpp.h"

namespace demeter {

const char* PolicyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kStatic:
      return "static";
    case PolicyKind::kDemeter:
      return "demeter";
    case PolicyKind::kTpp:
      return "tpp";
    case PolicyKind::kHTpp:
      return "tpp-h";
    case PolicyKind::kMemtis:
      return "memtis";
    case PolicyKind::kNomad:
      return "nomad";
    case PolicyKind::kDamon:
      return "damon";
  }
  return "?";
}

PolicyKind PolicyKindFromName(const std::string& name) {
  if (name == "static") {
    return PolicyKind::kStatic;
  }
  if (name == "demeter") {
    return PolicyKind::kDemeter;
  }
  if (name == "tpp") {
    return PolicyKind::kTpp;
  }
  if (name == "tpp-h" || name == "htpp") {
    return PolicyKind::kHTpp;
  }
  if (name == "memtis") {
    return PolicyKind::kMemtis;
  }
  if (name == "nomad") {
    return PolicyKind::kNomad;
  }
  if (name == "damon") {
    return PolicyKind::kDamon;
  }
  DEMETER_CHECK(false) << "unknown policy: " << name;
  return PolicyKind::kStatic;
}

const char* ProvisionModeName(ProvisionMode mode) {
  switch (mode) {
    case ProvisionMode::kStatic:
      return "static";
    case ProvisionMode::kVirtioBalloon:
      return "virtio-balloon";
    case ProvisionMode::kDemeterBalloon:
      return "demeter-balloon";
    case ProvisionMode::kHotplug:
      return "hotplug";
  }
  return "?";
}

std::unique_ptr<TmmPolicy> MakePolicy(PolicyKind kind, const DemeterConfig& demeter_config,
                                      Nanos policy_period) {
  switch (kind) {
    case PolicyKind::kStatic:
      return std::make_unique<StaticPolicy>();
    case PolicyKind::kDemeter:
      return std::make_unique<DemeterPolicy>(demeter_config);
    case PolicyKind::kTpp: {
      TppConfig config;
      config.scan_period = policy_period;
      return std::make_unique<TppPolicy>(config);
    }
    case PolicyKind::kHTpp: {
      HTppConfig config;
      config.scan_period = policy_period;
      return std::make_unique<HTppPolicy>(config);
    }
    case PolicyKind::kMemtis: {
      MemtisConfig config;
      config.classify_period = 2 * policy_period;
      config.poll_period = std::max<Nanos>(policy_period / 15, kMillisecond);
      // Scaled sampling: keep the histogram usefully populated at this
      // simulation's access rates (paper-scale defaults starve it).
      config.sample_period = 127;
      config.hot_count_threshold = 2.0;
      return std::make_unique<MemtisPolicy>(config);
    }
    case PolicyKind::kNomad: {
      NomadConfig config;
      config.scan_period = policy_period;
      return std::make_unique<NomadPolicy>(config);
    }
    case PolicyKind::kDamon: {
      DamonConfig config;
      config.aggregation_interval = policy_period;
      config.sample_interval = std::max<Nanos>(policy_period / 10, kMillisecond);
      return std::make_unique<DamonPolicy>(config);
    }
  }
  return nullptr;
}

Machine::Machine(MachineConfig config) : config_(config), rng_(config.seed) {
  memory_ = std::make_unique<HostMemory>(config.tiers);
  hyper_ = std::make_unique<Hypervisor>(memory_.get(), &events_);
  tracer_.set_enabled(config.capture_trace);
  // Installed before any VM exists so VM-internal units (PEBS) can bind it
  // at construction; disabled tracers make every record call a no-op.
  hyper_->set_tracer(&tracer_);
  // Like the tracer, the injector must exist before any VM so kernels and
  // PEBS units can bind it at construction. Empty plan -> no injector and
  // every hook stays on its legacy path.
  if (!config_.faults.empty()) {
    fault_injector_ = std::make_unique<FaultInjector>(config_.faults, config_.seed);
    hyper_->set_fault_injector(fault_injector_.get());
  }
  // Three-tier host: create the far swap device. Ordered after the injector
  // bind — the device consults it for swapfail draws. The device RNG stream
  // derives from the machine seed unless the bench pins one explicitly.
  if (static_cast<TierIndex>(config_.tiers.size()) > kSwapTier) {
    SwapDeviceConfig swap = config_.swap;
    if (swap.seed == 0) {
      swap.seed = config_.seed * 6007 + 13;
    }
    hyper_->EnableSwap(swap);
  }
  if (config_.overcommit.enabled) {
    overcommit_ = std::make_unique<OvercommitScheduler>(hyper_.get(), config_.overcommit);
    overcommit_->set_spill_request([this](int vm_i, int64_t delta_pages, Nanos now) {
      DemeterBalloon* balloon = demeter_balloons_[static_cast<size_t>(vm_i)].get();
      if (balloon == nullptr) {
        return false;  // No double balloon to arbitrate through.
      }
      balloon->RequestDelta(/*node=*/0, delta_pages, now);
      return true;
    });
    // Fair shares divide among VMs that actually hold resources here: booted
    // and not departed. Unbooted deferred VMs and extracted/departed VMs
    // drop out of the divisor; a VM that finished but still resides keeps
    // its share (its pages are still resident).
    overcommit_->set_resident([this](int vm_i) {
      return runtimes_[static_cast<size_t>(vm_i)].booted && !hyper_->vm(vm_i).departed();
    });
  }
}

Machine::~Machine() = default;

void Machine::SetCustomPolicy(int i, std::unique_ptr<TmmPolicy> policy) {
  DEMETER_CHECK(!ran_);
  custom_policies_[static_cast<size_t>(i)] = std::move(policy);
  results_[static_cast<size_t>(i)].policy = custom_policies_[static_cast<size_t>(i)]->name();
}

int Machine::AddVm(const VmSetup& setup) {
  DEMETER_CHECK(!ran_);
  return AddVmInternal(setup);
}

int Machine::AddVmInternal(const VmSetup& setup) {
  DEMETER_CHECK(setup.boot_at < kVcpuClockLimitNs)
      << "boot_at " << setup.boot_at << " ns is outside the vCPU clock's domain (2^48 ns)";
  VmSetup resolved = setup;
  resolved.vm.id = static_cast<int>(setups_.size());
  resolved.vm.start_full = setup.provision != ProvisionMode::kStatic;
  resolved.vm.rng_seed = config_.seed * 7919 + static_cast<uint64_t>(resolved.vm.id);
  Vm& vm = hyper_->CreateVm(resolved.vm);

  setups_.push_back(resolved);
  workloads_.push_back(MakeWorkload(resolved.workload, resolved.footprint_bytes));
  policies_.push_back(nullptr);
  custom_policies_.push_back(nullptr);
  // Balloon devices exist from VM creation (so QoS managers can register
  // against them before Run); resize requests go out during provisioning.
  demeter_balloons_.push_back(resolved.provision == ProvisionMode::kDemeterBalloon
                                  ? std::make_unique<DemeterBalloon>(&vm)
                                  : nullptr);
  virtio_balloons_.push_back(resolved.provision == ProvisionMode::kVirtioBalloon
                                 ? std::make_unique<VirtioBalloon>(&vm)
                                 : nullptr);
  hotplugs_.push_back(nullptr);
  runtimes_.emplace_back();
  results_.emplace_back();

  // Workload-characteristic cache behaviour.
  vm.set_cache_hit_rate(workloads_.back()->CacheHitRate());
  return resolved.vm.id;
}

void Machine::ProvisionVm(int i, Nanos now) {
  const VmSetup& setup = setups_[static_cast<size_t>(i)];
  Vm& machine_vm = vm(i);
  switch (setup.provision) {
    case ProvisionMode::kStatic:
      return;
    case ProvisionMode::kVirtioBalloon: {
      // The host wants the VM trimmed from 200% to 100% of its memory; the
      // tier-blind balloon decides where the pages come from.
      virtio_balloons_[static_cast<size_t>(i)]->RequestDelta(
          static_cast<int64_t>(setup.vm.total_pages()), now);
      return;
    }
    case ProvisionMode::kDemeterBalloon: {
      DemeterBalloon* balloon = demeter_balloons_[static_cast<size_t>(i)].get();
      balloon->RequestResizeTo(0, setup.vm.fmem_pages(), now);
      balloon->RequestResizeTo(1, setup.vm.smem_pages(), now);
      return;
    }
    case ProvisionMode::kHotplug: {
      // Scaled block size: keep the paper's 128MiB-per-16GiB coarseness.
      const uint64_t block = std::max<uint64_t>(setup.vm.total_memory_bytes / 128, kPageSize);
      auto hotplug = std::make_unique<HotplugProvisioner>(&machine_vm, block);
      hotplug->ResizeTo(0, setup.vm.fmem_pages(), now);
      hotplug->ResizeTo(1, setup.vm.smem_pages(), now);
      hotplugs_[static_cast<size_t>(i)] = std::move(hotplug);
      return;
    }
  }
}

void Machine::SetUpGuest(int i) {
  VmRuntime& rt = runtimes_[static_cast<size_t>(i)];
  rt.process = &vm(i).kernel().CreateProcess();
  workloads_[static_cast<size_t>(i)]->Setup(*rt.process, rng_);
  InitPass(i);
  rt.progress.assign(static_cast<size_t>(vm(i).num_vcpus()), VcpuProgress{});
}

void Machine::InitPass(int i) {
  Vm& machine_vm = vm(i);
  VmRuntime& rt = runtimes_[static_cast<size_t>(i)];
  Workload& wl = *workloads_[static_cast<size_t>(i)];
  if (!wl.NeedsInitPass()) {
    return;
  }
  // Touch the whole footprint in address order, round-robin over vCPUs —
  // application initialization, which fixes first-touch placement.
  int vcpu = 0;
  for (const Vma& vma : rt.process->space().vmas()) {
    if (!vma.tracked || vma.size() == 0) {
      continue;
    }
    for (uint64_t addr = vma.start; addr < vma.end; addr += kPageSize) {
      const AccessResult r = machine_vm.ExecuteAccess(vcpu, *rt.process, addr, /*is_write=*/true);
      machine_vm.vcpu(vcpu).clock_ns += r.ns;
      vcpu = (vcpu + 1) % machine_vm.num_vcpus();
    }
  }
}

void Machine::StartClocks(int i, double start) {
  Vm& machine_vm = vm(i);
  runtimes_[static_cast<size_t>(i)].start_time = static_cast<Nanos>(start);
  for (int v = 0; v < machine_vm.num_vcpus(); ++v) {
    Vcpu& vcpu = machine_vm.vcpu(v);
    vcpu.clock_ns = start;
    vcpu.next_context_switch =
        static_cast<Nanos>(start) + machine_vm.config().context_switch_period;
  }
  machine_vm.mgmt_account().Clear();  // Exclude provisioning/init overheads.
}

void Machine::AttachPolicy(int i, Nanos at) {
  const size_t slot = static_cast<size_t>(i);
  const VmSetup& setup = setups_[slot];
  std::unique_ptr<TmmPolicy> policy =
      custom_policies_[slot] != nullptr
          ? std::move(custom_policies_[slot])
          : MakePolicy(setup.policy, setup.demeter, setup.policy_period);
  policy->Attach(vm(i), *runtimes_[slot].process, at);
  policies_[slot] = std::move(policy);
}

Hypervisor::ReclaimResult Machine::TearDownVm(int i, Nanos now) {
  VmRuntime& rt = runtimes_[static_cast<size_t>(i)];
  Vm& machine_vm = vm(i);
  if (policies_[static_cast<size_t>(i)] != nullptr) {
    policies_[static_cast<size_t>(i)]->Stop();
  }
  machine_vm.set_departed(true);
  const Hypervisor::ReclaimResult reclaimed = hyper_->ReclaimVm(machine_vm);
  machine_vm.ReleaseStorage();
  rt.finished = true;  // A departed VM never runs again.
  rt.lifecycle.depart_ns = now;
  rt.lifecycle.reclaimed_gpt_pages += reclaimed.gpt_unmapped;
  rt.lifecycle.reclaimed_gpa_pages += reclaimed.gpa_freed;
  rt.lifecycle.reclaimed_ept_pages += reclaimed.ept_unbacked;
  return reclaimed;
}

InvariantReport Machine::CheckInvariants() {
  std::vector<InvariantChecker::VmView> views;
  views.reserve(static_cast<size_t>(num_vms()));
  for (int i = 0; i < num_vms(); ++i) {
    InvariantChecker::VmView view;
    view.departed = vm(i).departed();
    if (demeter_balloons_[static_cast<size_t>(i)] != nullptr) {
      const DemeterBalloon& balloon = *demeter_balloons_[static_cast<size_t>(i)];
      view.held_pages[0] = balloon.held_pages(0);
      view.held_pages[1] = balloon.held_pages(1);
    } else if (virtio_balloons_[static_cast<size_t>(i)] != nullptr) {
      // The tier-blind balloon tracks one flat page list; attribute each
      // held page to its guest node for per-node conservation.
      for (const PageNum gpa : virtio_balloons_[static_cast<size_t>(i)]->held()) {
        const int node = vm(i).kernel().NodeOfGpa(gpa);
        if (node >= 0 && node < 2) {
          ++view.held_pages[static_cast<size_t>(node)];
        }
      }
    } else if (hotplugs_[static_cast<size_t>(i)] != nullptr) {
      view.held_pages[0] = hotplugs_[static_cast<size_t>(i)]->unplugged_pages(0);
      view.held_pages[1] = hotplugs_[static_cast<size_t>(i)]->unplugged_pages(1);
    }
    views.push_back(view);
  }
  return InvariantChecker::Check(*hyper_, views);
}

void Machine::MaybeAuditInvariants(const char* where) {
  if (!config_.check_invariants) {
    return;
  }
  const InvariantReport report = CheckInvariants();
  DEMETER_CHECK(report.ok()) << "invariant violation (" << where << "): " << report.Join();
}

Nanos Machine::VmMinClock(int i) const {
  const Vm& machine_vm = hyper_->vm(i);
  Nanos min_clock = ~static_cast<Nanos>(0);
  for (int v = 0; v < machine_vm.num_vcpus(); ++v) {
    min_clock = std::min(min_clock, machine_vm.vcpu(v).now());
  }
  return min_clock;
}

Nanos Machine::MinActiveClock() const {
  Nanos min_clock = ~static_cast<Nanos>(0);
  bool any = false;
  for (int i = 0; i < num_vms(); ++i) {
    if (VmActive(i)) {
      any = true;
      min_clock = std::min(min_clock, VmMinClock(i));
    }
  }
  return any ? min_clock : 0;
}

int Machine::NumActiveVms() const {
  int active = 0;
  for (int i = 0; i < num_vms(); ++i) {
    active += VmActive(i) ? 1 : 0;
  }
  return active;
}

// Virtual time each vCPU runs per turn of the main loop.
constexpr Nanos kQuantum = 1 * kMillisecond;

void Machine::RunVmQuantum(int i) {
  Vm& machine_vm = vm(i);
  VmRuntime& rt = runtimes_[static_cast<size_t>(i)];
  VmRunResult& result = results_[static_cast<size_t>(i)];
  Workload& wl = *workloads_[static_cast<size_t>(i)];
  const VmSetup& setup = setups_[static_cast<size_t>(i)];
  const int ops_per_txn = wl.OpsPerTransaction();
  // The cap arithmetic below treats one-op transactions and "every op is a
  // transaction" (ops_per_txn <= 1) alike, as the per-op accounting does.
  const uint64_t opt = ops_per_txn > 1 ? static_cast<uint64_t>(ops_per_txn) : 1;

  for (int v = 0; v < machine_vm.num_vcpus() && !rt.finished; ++v) {
    Vcpu& vcpu = machine_vm.vcpu(v);
    VcpuProgress& progress = rt.progress[static_cast<size_t>(v)];
    const double quantum_end = vcpu.clock_ns + static_cast<double>(kQuantum);
    while (vcpu.clock_ns < quantum_end && !rt.finished) {
      if (progress.batch_pos >= progress.batch.size()) {
        progress.batch.clear();
        progress.batch_pos = 0;
        wl.NextBatch(v, config_.batch_ops, rng_, &progress.batch);
        DEMETER_CHECK(!progress.batch.empty()) << "workload produced no ops";
      }
      // Chunk horizon: the context-switch tick or the quantum end, whichever
      // comes first. ExecuteBatch runs ops until the clock reaches it; the op
      // that crosses it is the last one it runs.
      const double stop_at =
          std::min(quantum_end, static_cast<double>(vcpu.next_context_switch));
      // Never hand down ops past the transaction target: FinishVm snapshots
      // stats the moment the target transaction completes, so the op that
      // completes it must be the last op executed.
      size_t take = progress.batch.size() - progress.batch_pos;
      const uint64_t txns_left = setup.target_transactions - rt.transactions;
      if (txns_left <= (take + opt - 1) / opt) {
        const uint64_t ops_left =
            txns_left * opt - static_cast<uint64_t>(progress.ops_in_txn);
        if (ops_left < take) {
          take = static_cast<size_t>(ops_left);
        }
      }
      if (rt.steps.size() < take) {
        rt.steps.resize(take);
      }
      const size_t done = machine_vm.ExecuteBatch(
          v, *rt.process,
          std::span<const AccessOp>(progress.batch.data() + progress.batch_pos, take), stop_at,
          rt.steps.data());
      progress.batch_pos += done;
      // Per-op transaction accounting: latency, the latency histogram, the
      // timeline bucket (capped at kMaxTimelineBuckets) and, on the target
      // transaction, FinishVm.
      const BatchStep* steps = rt.steps.data();
      for (size_t k = 0; k < done; ++k) {
        progress.txn_latency_ns += steps[k].ns;
        if (++progress.ops_in_txn >= ops_per_txn) {
          progress.ops_in_txn = 0;
          result.txn_latency_ns.Record(static_cast<uint64_t>(progress.txn_latency_ns));
          progress.txn_latency_ns = 0.0;
          ++rt.transactions;
          const Nanos clock_after = steps[k].clock_after;
          size_t bucket =
              static_cast<size_t>((clock_after - rt.start_time) / setup.timeline_bucket);
          if (bucket >= kMaxTimelineBuckets) {
            bucket = kMaxTimelineBuckets - 1;  // Overflow txns pile into the last bucket.
          }
          if (result.timeline.size() <= bucket) {
            result.timeline.resize(bucket + 1, 0);
          }
          ++result.timeline[bucket];
          if (rt.transactions >= setup.target_transactions) {
            FinishVm(i, clock_after);
          }
        }
      }
      // Timer tick / scheduler: context switches drain PEBS (Demeter hook).
      // The chunk was cut at the tick, so at most its last op crossed it.
      if (vcpu.clock_ns >= static_cast<double>(vcpu.next_context_switch)) {
        vcpu.clock_ns += machine_vm.OnContextSwitch(v, vcpu.now());
        vcpu.next_context_switch += machine_vm.config().context_switch_period;
      }
    }
  }
}

void Machine::FinishVm(int i, Nanos now) {
  VmRuntime& rt = runtimes_[static_cast<size_t>(i)];
  if (rt.finished) {
    return;
  }
  rt.finished = true;
  Vm& machine_vm = vm(i);
  if (policies_[static_cast<size_t>(i)] != nullptr) {
    policies_[static_cast<size_t>(i)]->Stop();
  }
  VmRunResult& result = results_[static_cast<size_t>(i)];
  result.workload = setups_[static_cast<size_t>(i)].workload;
  result.policy = policies_[static_cast<size_t>(i)] != nullptr
                      ? policies_[static_cast<size_t>(i)]->name()
                      : PolicyKindName(setups_[static_cast<size_t>(i)].policy);
  result.transactions = rt.transactions;
  result.elapsed_s = ToSeconds(now - rt.start_time);
  result.tlb = machine_vm.AggregateTlbStats();
  result.tlb.Merge(rt.migrated_tlb);  // Whole-life stats for migrated VMs.
  result.vm_stats = machine_vm.stats();
  result.mgmt = machine_vm.mgmt_account();
  result.timeline_bucket = setups_[static_cast<size_t>(i)].timeline_bucket;
  // swap_accesses is forever zero on two-tier hosts, so the fraction is
  // unchanged there; on three-tier hosts far accesses dilute it.
  const uint64_t mem_accesses = result.vm_stats.fmem_accesses + result.vm_stats.smem_accesses +
                                result.vm_stats.swap_accesses;
  result.fmem_access_fraction =
      mem_accesses == 0
          ? 0.0
          : static_cast<double>(result.vm_stats.fmem_accesses) / static_cast<double>(mem_accesses);
  // Depart before snapshotting so the result metrics include the lifecycle
  // accounting (departures, reclaimed pages) of the removal itself.
  if (setups_[static_cast<size_t>(i)].depart_on_finish) {
    RemoveVm(i, now);
  }
  // A prefix range scan: a full snapshot-then-filter would make every
  // finish O(total metrics), quadratic across a dense host's finishing VMs.
  result.metrics = registry_.SnapshotPrefix("vm" + std::to_string(i) + "/", /*strip=*/true);
}

void Machine::RemoveVm(int i, Nanos now) {
  VmRuntime& rt = runtimes_[static_cast<size_t>(i)];
  DEMETER_CHECK(rt.booted) << "removing never-booted vm " << i;
  DEMETER_CHECK(!vm(i).departed()) << "vm " << i << " removed twice";
  const Hypervisor::ReclaimResult reclaimed = TearDownVm(i, now);
  ++rt.lifecycle.departures;
  if (tracer_.enabled()) {
    tracer_.Instant("lifecycle", "depart", now, i, 0,
                    TraceArgs().Add("ept_pages", reclaimed.ept_unbacked).str());
  }
  MaybeAuditInvariants("post-remove");
}

uint64_t Machine::KillVm(int i, Nanos now) {
  VmRuntime& rt = runtimes_[static_cast<size_t>(i)];
  DEMETER_CHECK(rt.booted && !rt.finished) << "killing inactive vm " << i;
  // A kill is a fail-stop: the transactions completed so far are the work
  // the fleet loses (the restart, if any, begins from zero).
  const uint64_t lost = rt.transactions;
  ++rt.lifecycle.killed;
  rt.lifecycle.transactions_lost += lost;
  if (tracer_.enabled()) {
    tracer_.Instant("lifecycle", "kill", now, i, 0,
                    TraceArgs().Add("transactions_lost", lost).str());
  }
  RemoveVm(i, now);
  return lost;
}

void Machine::BootVm(int i, Nanos at) {
  VmRuntime& rt = runtimes_[static_cast<size_t>(i)];
  DEMETER_CHECK(!rt.booted) << "vm " << i << " booted twice";
  rt.booted = true;
  ++rt.lifecycle.boots;
  rt.lifecycle.boot_ns = at;
  Vm& machine_vm = vm(i);
  for (int v = 0; v < machine_vm.num_vcpus(); ++v) {
    Vcpu& vcpu = machine_vm.vcpu(v);
    vcpu.clock_ns = static_cast<double>(at);
    vcpu.next_context_switch = at + machine_vm.config().context_switch_period;
  }
  if (tracer_.enabled()) {
    tracer_.Instant("lifecycle", "boot", at, i, 0, "");
  }
  ProvisionVm(i, at);
  // Drain the provisioning request/completion chain (same bounded horizon
  // as the phase-1 drain) before the guest starts touching memory.
  event_horizon_ = std::max(event_horizon_, at + 10 * kMillisecond);
  events_.RunUntil(event_horizon_);
  MaybeAuditInvariants("post-boot");

  SetUpGuest(i);
  // Align this VM's vCPUs to their own max (init-pass skew), mirroring the
  // phase-3 alignment boot-time VMs get.
  double start = 0.0;
  for (int v = 0; v < machine_vm.num_vcpus(); ++v) {
    start = std::max(start, machine_vm.vcpu(v).clock_ns);
  }
  StartClocks(i, start);
  AttachPolicy(i, static_cast<Nanos>(start));
  // The machine-wide registration pass already ran (phase 4); register the
  // late policy's counters now.
  policies_[static_cast<size_t>(i)]->RegisterMetrics(
      MetricScope(&registry_, "vm" + std::to_string(i)).Sub("policy"));
}

void Machine::Run() {
  StartRun();
  while (StepUntil(kNoHorizon)) {
  }
  FinishRun();
}

void Machine::StartRun() {
  DEMETER_CHECK(!ran_);
  ran_ = true;

  // Tier-shrink windows (if the fault plan schedules any) live on the same
  // event queue as everything else; arm them before time starts moving.
  hyper_->ArmTierShrink();
  if (overcommit_ != nullptr) {
    overcommit_->Start();
  }

  // Phase 1: provisioning. Balloon request/completion chains finish within
  // microseconds of virtual time; a bounded horizon (rather than draining
  // until empty) coexists with unrelated periodic timers (e.g. a QoS
  // manager) that re-arm themselves forever. VMs with a deferred boot_at
  // skip phases 1-4 entirely; BootVm replays them mid-run.
  for (int i = 0; i < num_vms(); ++i) {
    if (setups_[static_cast<size_t>(i)].boot_at > 0) {
      continue;
    }
    runtimes_[static_cast<size_t>(i)].booted = true;
    ++runtimes_[static_cast<size_t>(i)].lifecycle.boots;
    ProvisionVm(i, /*now=*/0);
  }
  events_.RunUntil(10 * kMillisecond);
  event_horizon_ = 10 * kMillisecond;
  MaybeAuditInvariants("post-provision");

  // Phase 2: workload setup + init pass.
  for (int i = 0; i < num_vms(); ++i) {
    if (runtimes_[static_cast<size_t>(i)].booted) {
      SetUpGuest(i);
    }
  }

  // Phase 3: align all clocks so VMs contend from the same instant.
  double global_start = 0.0;
  for (int i = 0; i < num_vms(); ++i) {
    if (!runtimes_[static_cast<size_t>(i)].booted) {
      continue;
    }
    for (int v = 0; v < vm(i).num_vcpus(); ++v) {
      global_start = std::max(global_start, vm(i).vcpu(v).clock_ns);
    }
  }
  for (int i = 0; i < num_vms(); ++i) {
    if (runtimes_[static_cast<size_t>(i)].booted) {
      StartClocks(i, global_start);
    }
  }

  // Phase 4: attach policies (custom instances take precedence).
  for (int i = 0; i < num_vms(); ++i) {
    if (runtimes_[static_cast<size_t>(i)].booted) {
      AttachPolicy(i, static_cast<Nanos>(global_start));
    }
  }
  RegisterAllMetrics();
}

bool Machine::StepUntil(Nanos horizon) {
  // Phase 5: main loop — lock-stepped quanta + due events. Deferred VMs
  // join once global virtual time reaches their boot_at (or immediately
  // past the last event horizon when the machine is otherwise idle).
  // The body is Run()'s original loop verbatim; the only addition is the
  // barrier check, which never fires at kNoHorizon — so Run() is
  // byte-identical to the pre-split code, and a Cluster stepping a host in
  // epoch slices replays exactly the same iterations.
  for (;;) {
    // Boot scan over the deferred VMs in vm-id order. A boot drains events,
    // which may move clocks, so the minimum is read again after each one.
    bool any_active = NumActiveVms() > 0;
    Nanos min_clock = MinActiveClock();
    for (int i = 0; i < num_vms(); ++i) {
      if (runtimes_[static_cast<size_t>(i)].booted) {
        continue;
      }
      const Nanos due = setups_[static_cast<size_t>(i)].boot_at;
      if (!any_active || min_clock >= due) {
        BootVm(i, any_active ? min_clock : std::max(due, event_horizon_));
        any_active = true;
        min_clock = MinActiveClock();
      }
    }
    if (!any_active) {
      return false;
    }
    if (MinActiveClock() >= horizon) {
      return true;  // Barrier reached with VMs still active.
    }
    // Quanta in vm-id order; a VM that finishes mid-quantum is skipped from
    // then on.
    for (int i = 0; i < num_vms(); ++i) {
      if (VmActive(i)) {
        RunVmQuantum(i);
      }
    }
    const Nanos step_horizon = MinActiveClock();
    event_horizon_ = std::max(event_horizon_, step_horizon);
    events_.RunUntil(step_horizon);
    MaybeAuditInvariants("main-loop");
  }
}

void Machine::FinishRun() { MaybeAuditInvariants("end-of-run"); }

void Machine::RegisterAllMetrics() {
  hyper_->RegisterMetrics(MetricScope(&registry_, "host"));
  if (overcommit_ != nullptr) {
    overcommit_->RegisterMetrics(MetricScope(&registry_, "host").Sub("overcommit"));
  }
  for (int i = 0; i < num_vms(); ++i) {
    RegisterVmMetricsFor(i);
  }
}

void Machine::RegisterVmMetricsFor(int i) {
  MetricScope scope(&registry_, "vm" + std::to_string(i));
  vm(i).RegisterMetrics(scope);
  if (policies_[static_cast<size_t>(i)] != nullptr) {
    policies_[static_cast<size_t>(i)]->RegisterMetrics(scope.Sub("policy"));
  }
  if (demeter_balloons_[static_cast<size_t>(i)] != nullptr) {
    demeter_balloons_[static_cast<size_t>(i)]->RegisterMetrics(scope.Sub("balloon"));
  }
  if (fault_injector_ != nullptr) {
    fault_injector_->RegisterVmMetrics(scope.Sub("fault"), i);
  }
  // Lifecycle counters are unconditional: all-zero (beyond boots=1) for
  // VMs that boot with the machine and never depart. `runtimes_` is a deque
  // precisely so these cell addresses stay stable when AdmitVm/AdoptVm grow
  // it mid-run.
  MetricScope life = scope.Sub("lifecycle");
  const LifecycleStats& ls = runtimes_[static_cast<size_t>(i)].lifecycle;
  life.RegisterCounter("boots", &ls.boots);
  life.RegisterCounter("departures", &ls.departures);
  life.RegisterCounter("boot_ns", &ls.boot_ns);
  life.RegisterCounter("depart_ns", &ls.depart_ns);
  life.RegisterCounter("reclaimed_gpt_pages", &ls.reclaimed_gpt_pages);
  life.RegisterCounter("reclaimed_gpa_pages", &ls.reclaimed_gpa_pages);
  life.RegisterCounter("reclaimed_ept_pages", &ls.reclaimed_ept_pages);
  life.RegisterCounter("migrated_in", &ls.migrated_in);
  life.RegisterCounter("migrated_out", &ls.migrated_out);
  life.RegisterCounter("killed", &ls.killed);
  life.RegisterCounter("restarts", &ls.restarts);
  life.RegisterCounter("transactions_lost", &ls.transactions_lost);
}

int Machine::AdmitVm(const VmSetup& setup, Nanos at, bool restarted) {
  DEMETER_CHECK(ran_) << "AdmitVm before StartRun (use AddVm)";
  DEMETER_CHECK(at < kVcpuClockLimitNs)
      << "AdmitVm at " << at << " ns is outside the vCPU clock's domain (2^48 ns)";
  const int i = AddVmInternal(setup);
  if (restarted) {
    ++runtimes_[static_cast<size_t>(i)].lifecycle.restarts;
  }
  // Policy metrics are registered by BootVm (policies attach there); the
  // registration order for this VM therefore matches the deferred-boot path.
  RegisterVmMetricsFor(i);
  BootVm(i, at);
  return i;
}

MigratedVm Machine::ExtractVm(int i, Nanos now) {
  VmRuntime& rt = runtimes_[static_cast<size_t>(i)];
  Vm& machine_vm = vm(i);
  DEMETER_CHECK(rt.booted && !rt.finished) << "extracting inactive vm " << i;
  DEMETER_CHECK(!machine_vm.departed()) << "extracting departed vm " << i;

  MigratedVm out;
  out.setup = setups_[static_cast<size_t>(i)];
  out.image = CaptureVmImage(machine_vm, *rt.process);
  out.stats = machine_vm.stats();
  out.mgmt = machine_vm.mgmt_account();
  out.tlb = machine_vm.AggregateTlbStats();
  out.tlb.Merge(rt.migrated_tlb);
  const int vcpus = machine_vm.num_vcpus();
  out.vcpu_clock_ns.reserve(static_cast<size_t>(vcpus));
  out.next_context_switch.reserve(static_cast<size_t>(vcpus));
  for (int v = 0; v < vcpus; ++v) {
    out.vcpu_clock_ns.push_back(machine_vm.vcpu(v).clock_ns);
    out.next_context_switch.push_back(machine_vm.vcpu(v).next_context_switch);
  }
  out.workload = std::move(workloads_[static_cast<size_t>(i)]);
  out.progress = std::move(rt.progress);
  out.transactions = rt.transactions;
  out.start_time = rt.start_time;
  out.txn_latency_hist = std::move(results_[static_cast<size_t>(i)].txn_latency_ns);
  out.timeline = std::move(results_[static_cast<size_t>(i)].timeline);

  // Drain this host like a departure: the departed-VM emptiness audit must
  // hold here from now on. The Vm object stays alive for late events.
  TearDownVm(i, now);
  ++rt.lifecycle.migrated_out;
  if (tracer_.enabled()) {
    tracer_.Instant("lifecycle", "migrate_out", now, i, 0,
                    TraceArgs().Add("pages", out.image.num_pages()).str());
  }
  MaybeAuditInvariants("post-extract");
  return out;
}

int Machine::AdoptVm(MigratedVm&& moved, Nanos now, double extra_downtime_ns) {
  DEMETER_CHECK(ran_) << "AdoptVm before StartRun";
  VmSetup setup = moved.setup;
  // Balloon/hotplug provisioning state does not travel: the VM arrives at
  // its target composition and is backed statically on this host.
  setup.provision = ProvisionMode::kStatic;
  setup.boot_at = 0;
  const int i = AddVmInternal(setup);
  VmRuntime& rt = runtimes_[static_cast<size_t>(i)];
  Vm& machine_vm = vm(i);
  rt.booted = true;
  ++rt.lifecycle.migrated_in;
  rt.lifecycle.boot_ns = now;

  rt.process = &machine_vm.kernel().CreateProcess();
  rt.process->space().RestoreLayout(moved.image.vmas, moved.image.brk, moved.image.mmap_floor);
  double restore_ns = 0.0;
  RestoreVmImage(machine_vm, *rt.process, moved.image, now, &restore_ns);

  machine_vm.stats() = moved.stats;
  machine_vm.mgmt_account() = moved.mgmt;
  rt.migrated_tlb = moved.tlb;
  workloads_[static_cast<size_t>(i)] = std::move(moved.workload);
  machine_vm.set_cache_hit_rate(workloads_[static_cast<size_t>(i)]->CacheHitRate());
  rt.progress = std::move(moved.progress);
  rt.transactions = moved.transactions;
  rt.start_time = moved.start_time;
  results_[static_cast<size_t>(i)].txn_latency_ns = std::move(moved.txn_latency_hist);
  results_[static_cast<size_t>(i)].timeline = std::move(moved.timeline);

  // Downtime = the final stop-and-copy transfer plus the rebuild work just
  // charged; every vCPU resumes that far past its source clock.
  const double downtime_ns = extra_downtime_ns + restore_ns;
  machine_vm.mgmt_account().Charge(TmmStage::kMigration, static_cast<Nanos>(downtime_ns));
  const int vcpus = machine_vm.num_vcpus();
  DEMETER_CHECK_EQ(static_cast<size_t>(vcpus), moved.vcpu_clock_ns.size());
  double resume = 0.0;
  for (int v = 0; v < vcpus; ++v) {
    Vcpu& vcpu = machine_vm.vcpu(v);
    vcpu.clock_ns = moved.vcpu_clock_ns[static_cast<size_t>(v)] + downtime_ns;
    vcpu.next_context_switch = moved.next_context_switch[static_cast<size_t>(v)] +
                               static_cast<Nanos>(downtime_ns);
    resume = std::max(resume, vcpu.clock_ns);
  }
  if (tracer_.enabled()) {
    tracer_.Instant("lifecycle", "migrate_in", now, i, 0,
                    TraceArgs().Add("pages", moved.image.num_pages()).str());
  }

  // Fresh policy instance on the destination (classification restarts cold,
  // as a real migration would): attach, then register this VM's metrics.
  AttachPolicy(i, static_cast<Nanos>(resume));
  RegisterVmMetricsFor(i);

  // Drain any events the restore scheduled (e.g. swap writebacks), bounded
  // like a mid-run boot.
  event_horizon_ = std::max(event_horizon_, now + 10 * kMillisecond);
  events_.RunUntil(event_horizon_);
  MaybeAuditInvariants("post-adopt");
  return i;
}

}  // namespace demeter
