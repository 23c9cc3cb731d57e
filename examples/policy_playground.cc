// Policy playground: writing a custom TMM policy against the public API.
//
// Demeter's policy interface (TmmPolicy) is deliberately small: attach to a
// VM, register hooks, steal the CPU time your bookkeeping costs. This
// example implements a naive "random promoter" policy in ~60 lines and races
// it against no management and the full Demeter engine — a template for
// experimenting with your own classification or migration ideas.
//
// Build & run:  ./build/examples/policy_playground

#include <cstdio>

#include "src/core/api.h"
#include "src/harness/machine.h"

namespace demeter {
namespace {

// A deliberately naive policy: every period, promote a few random SMEM
// pages and demote FIFO victims to make room. No access tracking at all —
// the floor any real classifier must beat.
class RandomPromoter : public TmmPolicy {
 public:
  const char* name() const override { return "random-promoter"; }

  void Attach(Vm& vm, GuestProcess& process, Nanos start) override {
    vm_ = &vm;
    process_ = &process;
    Schedule(start);
  }

 private:
  void Schedule(Nanos now) {
    if (stopped_) {
      return;
    }
    vm_->host().events().Schedule(now + 20 * kMillisecond,
                                  [this, alive = alive_](Nanos fire) {
                                    if (*alive) {
                                      Tick(fire);
                                    }
                                  });
  }

  void Tick(Nanos now) {
    if (stopped_) {
      return;
    }
    double cost = 0.0;
    GuestKernel& kernel = vm_->kernel();
    for (int i = 0; i < 64; ++i) {
      // Pick a random mapped page; promote it if it lives in SMEM.
      auto victim = kernel.PickVictim(1);
      if (!victim.has_value()) {
        break;
      }
      const std::optional<RmapEntry> rmap = kernel.Rmap(*victim);
      if (kernel.node(0).free_pages() < 8) {
        auto fmem_victim = kernel.PickVictim(0);
        if (fmem_victim.has_value()) {
          const std::optional<RmapEntry> fr = kernel.Rmap(*fmem_victim);
          vm_->MovePage(*kernel.process(fr->pid), fr->vpn, 1, now, &cost);
        }
      }
      vm_->MovePage(*kernel.process(rmap->pid), rmap->vpn, 0, now, &cost);
    }
    vm_->vcpu(0).clock_ns += cost;
    vm_->mgmt_account().Charge(TmmStage::kMigration, static_cast<Nanos>(cost));
    Schedule(now);
  }

  Vm* vm_ = nullptr;
  GuestProcess* process_ = nullptr;
};

double RunWith(const char* label, std::unique_ptr<TmmPolicy> policy) {
  MachineConfig host;
  host.tiers = {TierSpec::LocalDram(10 * kMiB), TierSpec::Pmem(64 * kMiB)};
  Machine machine(host);
  VmSetup setup;
  setup.vm.total_memory_bytes = 32 * kMiB;
  setup.vm.num_vcpus = 2;
  setup.workload = "xsbench";
  setup.footprint_bytes = 24 * kMiB;
  setup.target_transactions = 120000;
  setup.demeter.range.epoch_length = 10 * kMillisecond;
  setup.demeter.range.split_threshold = 4.0;
  setup.demeter.sample_period = 97;
  // The harness builds its own policy from `setup.policy`; for a custom one
  // we attach by hand after construction — so run with kStatic and attach.
  setup.policy = PolicyKind::kStatic;
  const int i = machine.AddVm(setup);
  if (policy != nullptr) {
    machine.SetCustomPolicy(i, std::move(policy));
  }
  machine.Run();
  const VmRunResult& result = machine.result(i);
  std::printf("  %-18s elapsed=%.3fs  fmem-hit=%4.1f%%  promoted=%llu\n", label,
              result.elapsed_s, result.fmem_access_fraction * 100,
              static_cast<unsigned long long>(result.vm_stats.pages_promoted));
  return result.elapsed_s;
}

int Run() {
  std::printf("== Policy playground: plug your own TMM policy into the VM ==\n\n");
  std::printf("XSBench (static hotspot), 24 MiB footprint, FMEM 1:5:\n\n");
  const double baseline = RunWith("no-management", nullptr);
  const double random = RunWith("random-promoter", std::make_unique<RandomPromoter>());
  const double demeter = RunWith("demeter", std::make_unique<DemeterPolicy>([] {
                                   DemeterConfig config;
                                   config.range.epoch_length = 10 * kMillisecond;
                                   config.range.split_threshold = 4.0;
                                   config.sample_period = 97;
                                   return config;
                                 }()));
  std::printf("\nSpeedup vs no-management: random %.2fx, demeter %.2fx\n",
              baseline / random, baseline / demeter);
  std::printf("Moving pages without hotness information barely helps (or hurts);\n"
              "classification quality is what pays.\n");
  return 0;
}

}  // namespace
}  // namespace demeter

int main() { return demeter::Run(); }
