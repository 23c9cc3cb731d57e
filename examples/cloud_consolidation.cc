// Cloud consolidation: QoS-driven FMEM rebalancing with the Demeter double
// balloon (§3.3).
//
// Two tenants share a host. Both start with the default 1:5 FMEM ratio.
// Mid-run, the premium tenant's telemetry (via the balloon statistics
// queue) shows FMEM pressure, so the host shifts fast memory from the
// best-effort VM to the premium VM — page-granular, asynchronous, and
// tier-aware: exactly the elasticity a coarse hotplug or a tier-blind
// balloon cannot deliver.
//
// Build & run:  ./build/examples/cloud_consolidation

#include <algorithm>
#include <cstdio>

#include "src/core/api.h"
#include "src/workloads/gups.h"
#include "src/workloads/workload.h"

namespace demeter {
namespace {

struct Tenant {
  const char* name = nullptr;
  Vm* vm = nullptr;
  GuestProcess* process = nullptr;
  std::unique_ptr<Workload> workload;
  std::unique_ptr<DemeterPolicy> policy;
  std::unique_ptr<DemeterBalloon> balloon;
  std::vector<AccessOp> ops;
  size_t pos = 0;
  uint64_t phase_accesses = 0;
  double phase_ns = 0.0;
};

// Advances one tenant by `slice_ns` of virtual time.
void RunSlice(Tenant& tenant, Rng& rng, double slice_ns) {
  Vm& vm = *tenant.vm;
  const double deadline = vm.vcpu(0).clock_ns + slice_ns;
  int vcpu = 0;
  while (vm.vcpu(0).clock_ns < deadline) {
    if (tenant.pos >= tenant.ops.size()) {
      tenant.ops.clear();
      tenant.pos = 0;
      tenant.workload->NextBatch(vcpu, 1024, rng, &tenant.ops);
    }
    const AccessOp op = tenant.ops[tenant.pos++];
    const AccessResult r = vm.ExecuteAccess(vcpu, *tenant.process, op.gva, op.is_write);
    vm.vcpu(vcpu).clock_ns += r.ns;
    tenant.phase_ns += r.ns;
    ++tenant.phase_accesses;
    Vcpu& v = vm.vcpu(vcpu);
    if (v.clock_ns >= static_cast<double>(v.next_context_switch)) {
      v.clock_ns += vm.OnContextSwitch(vcpu, v.now());
      v.next_context_switch += vm.config().context_switch_period;
    }
    vcpu = (vcpu + 1) % vm.num_vcpus();
  }
}

// Runs both tenants concurrently (interleaved 1 ms slices) for `budget_ns`.
void RunPhase(EventQueue& events, Tenant* tenants, Rng& rng, double budget_ns) {
  for (double done = 0; done < budget_ns; done += 1e6) {
    for (int i = 0; i < 2; ++i) {
      RunSlice(tenants[i], rng, 1e6);
    }
    const Nanos now = static_cast<Nanos>(
        std::min(tenants[0].vm->vcpu(0).clock_ns, tenants[1].vm->vcpu(0).clock_ns));
    events.RunUntil(now);
  }
}

int Run() {
  std::printf("== Cloud consolidation with the Demeter double balloon ==\n\n");

  HostMemory memory({TierSpec::LocalDram(24 * kMiB), TierSpec::Pmem(128 * kMiB)});
  EventQueue events;
  Hypervisor hyper(&memory, &events);

  Tenant tenants[2];
  tenants[0].name = "premium";
  tenants[1].name = "best-effort";
  for (int i = 0; i < 2; ++i) {
    VmConfig config;
    config.id = i;
    config.num_vcpus = 2;
    config.total_memory_bytes = 32 * kMiB;
    config.fmem_ratio = 0.2;
    config.cache_hit_rate = 0.05;
    config.rng_seed = 1000 + static_cast<uint64_t>(i);
    Tenant& tenant = tenants[i];
    tenant.vm = &hyper.CreateVm(config);
    tenant.process = &tenant.vm->kernel().CreateProcess();
    // A hot set deliberately larger than the default FMEM share, so extra
    // fast memory translates directly into throughput.
    GupsConfig gups;
    gups.footprint_bytes = 24 * kMiB;
    gups.hot_fraction = 0.38;
    gups.hot_offset_fraction = 0.55;
    tenant.workload = std::make_unique<GupsHotset>(gups);
    Rng rng(static_cast<uint64_t>(i) + 5);
    tenant.workload->Setup(*tenant.process, rng);
    // Init pass: first-touch placement.
    for (const Vma& vma : tenant.process->space().vmas()) {
      if (!vma.tracked || vma.size() == 0) {
        continue;
      }
      for (uint64_t addr = vma.start; addr < vma.end; addr += kPageSize) {
        tenant.vm->ExecuteAccess(0, *tenant.process, addr, true);
      }
    }
    DemeterConfig dconfig;
    dconfig.range.epoch_length = 10 * kMillisecond;
    dconfig.range.split_threshold = 4.0;
    dconfig.sample_period = 97;
    tenant.policy = std::make_unique<DemeterPolicy>(dconfig);
    tenant.policy->Attach(*tenant.vm, *tenant.process, tenant.vm->vcpu(0).now());
    tenant.balloon = std::make_unique<DemeterBalloon>(tenant.vm);
  }

  Rng rng(99);
  auto report = [&](const char* phase) {
    std::printf("%s\n", phase);
    for (Tenant& tenant : tenants) {
      const double mps = tenant.phase_ns > 0
                             ? static_cast<double>(tenant.phase_accesses) / tenant.phase_ns * 1e3
                             : 0.0;
      std::printf("  %-12s fmem=%5.1f MiB  throughput=%7.2f M acc/s\n", tenant.name,
                  static_cast<double>(tenant.vm->kernel().node(0).present_pages() * kPageSize) /
                      static_cast<double>(kMiB),
                  mps);
      tenant.phase_accesses = 0;
      tenant.phase_ns = 0.0;
    }
    std::printf("\n");
  };

  // Phase 1: both tenants run with the default composition.
  RunPhase(events, tenants, rng, 150e6);
  report("Phase 1 (equal FMEM shares):");

  // QoS decision: read the premium tenant's telemetry, then rebalance.
  const Nanos now = static_cast<Nanos>(tenants[0].vm->vcpu(0).clock_ns);
  tenants[0].balloon->QueryStats(now, [](const GuestMemStats& stats, Nanos) {
    std::printf("Premium telemetry: fmem present=%llu pages free=%llu, promoted=%llu — "
                "hot set exceeds FMEM; requesting more fast memory.\n\n",
                static_cast<unsigned long long>(stats.node_present[0]),
                static_cast<unsigned long long>(stats.node_free[0]),
                static_cast<unsigned long long>(stats.pages_promoted));
  });
  events.RunUntil(now + kSecond);

  // Shift half of the best-effort tenant's FMEM to the premium tenant:
  // inflate B's fast-node balloon, deflate A's by the same amount.
  const uint64_t shift = tenants[1].vm->kernel().node(0).present_pages() / 2;
  tenants[1].balloon->RequestDelta(0, static_cast<int64_t>(shift), now);
  tenants[0].balloon->RequestDelta(0, -static_cast<int64_t>(shift), now);
  events.RunUntil(now + kSecond);
  std::printf("Rebalanced: moved %.1f MiB of FMEM from best-effort to premium.\n\n",
              static_cast<double>(shift * kPageSize) / static_cast<double>(kMiB));

  // Phase 2: the premium tenant's TMM can now hold its whole hot set.
  RunPhase(events, tenants, rng, 150e6);
  report("Phase 2 (premium holds 1.5x FMEM):");

  std::printf("The premium tenant gains throughput at the best-effort tenant's\n"
              "expense — page-granular, applied online, with no VM restarts.\n");
  return 0;
}

}  // namespace
}  // namespace demeter

int main() { return demeter::Run(); }
