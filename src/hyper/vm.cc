#include "src/hyper/vm.h"

#include <algorithm>
#include <string>

#include "src/base/logging.h"
#include "src/hyper/hypervisor.h"
#include "src/mem/tier.h"

namespace demeter {

Vm::Vm(const VmConfig& config, Hypervisor* host)
    : config_(config), host_(host), rng_(config.rng_seed + static_cast<uint64_t>(config.id)) {
  DEMETER_CHECK(host != nullptr);
  DEMETER_CHECK_GT(config.num_vcpus, 0);
  DEMETER_CHECK_GT(config.total_pages(), 0u);

  GuestKernelConfig kconfig;
  kconfig.num_nodes = 2;
  // Each node's span covers 100% of VM memory so the balloon can shift
  // composition anywhere between all-FMEM and all-SMEM (§3.3).
  kconfig.node_span_pages = {config.total_pages(), config.total_pages()};
  if (config.start_full) {
    kconfig.node_present_pages = {config.total_pages(), config.total_pages()};
  } else {
    kconfig.node_present_pages = {config.fmem_pages(), config.smem_pages()};
  }
  kconfig.free_list_shuffle_seed = config.rng_seed + 17;
  kernel_ = std::make_unique<GuestKernel>(kconfig);
  kernel_->BindFault(host->fault_injector(), config.id);

  for (int i = 0; i < config.num_vcpus; ++i) {
    auto vcpu = std::make_unique<Vcpu>();
    vcpu->id = i;
    vcpu->pebs = std::make_unique<PebsUnit>(config.pebs);
    vcpu->pebs->BindTrace(host->tracer(), config.id, i);
    vcpu->pebs->BindFault(host->fault_injector(), config.id);
    vcpu->next_context_switch = config.context_switch_period;
    vcpus_.push_back(std::move(vcpu));
  }
  // Host subsystem aliases (see the member comment for the ordering
  // contract that makes these safe to bind once here).
  mem_ = &host->memory();
  fault_ = host->fault_injector();
  swap_ = host->swap();
  if (fault_ != nullptr) {
    poison_armed_[kFmemTier] = fault_->Arms(FaultSite::kPoisonFmem);
    poison_armed_[kSmemTier] = fault_->Arms(FaultSite::kPoisonSmem);
  }
}

AccessResult Vm::ExecuteAccess(int vcpu_id, GuestProcess& process, uint64_t gva, bool is_write) {
  RunMemo memo;  // Fresh: no run to continue, so it never matches.
  return ExecuteAccessImpl(vcpu(vcpu_id), process, gva, is_write, memo);
}

size_t Vm::ExecuteBatch(int vcpu_id, GuestProcess& process, std::span<const AccessOp> ops,
                        double stop_at_ns, BatchStep* steps) {
  Vcpu& v = vcpu(vcpu_id);
  RunMemo memo;
  size_t done = 0;
  while (done < ops.size()) {
    const AccessOp& op = ops[done];
    const AccessResult r = ExecuteAccessImpl(v, process, op.gva, op.is_write, memo);
    v.clock_ns += r.ns;
    steps[done] = BatchStep{r.ns, v.now()};
    ++done;
    // Post-op horizon check: at least one op runs, and the op that crosses
    // the horizon is included (then we stop, so the caller can account it
    // and service the context-switch tick).
    if (!(v.clock_ns < stop_at_ns)) {
      break;
    }
  }
  return done;
}

AccessResult Vm::ExecuteAccessImpl(Vcpu& v, GuestProcess& process, uint64_t gva, bool is_write,
                                   RunMemo& memo) {
  ++stats_.accesses;
  if (is_write) {
    ++stats_.writes;
  }
  const Nanos now = v.now();

  if (rng_.NextBool(config_.cache_hit_rate)) {
    ++stats_.cache_hits;
    double ns = kL2HitLatencyNs;
    const double pmi = v.pebs->OnAccess(gva, kL2HitLatencyNs, is_write, now);
    ns += pmi;
    if (pmi != 0.0) {
      memo.vpn = RunMemo::kNone;  // The PMI handler may have moved pages.
    }
    stats_.total_access_ns += ns;
    return AccessResult{ns, /*cache_hit=*/true, kFmemTier};
  }

  const PageNum vpn = PageOf(gva);
  double total = 0.0;
  TranslationResult tr;
  FaultInjector* const fault = fault_;
  SwapDevice* const swap = swap_;
  bool poison_drawn = false;
  TierIndex t = kFmemTier;
  bool translated = false;

  // Same-page run fast path: the previous non-cache-hit access of this
  // batch translated this very page and nothing since could have moved it
  // (the memo is dropped on any PMI or poison recovery, and the page's own
  // TLB entry is pinned by being the most recently touched). Costs and
  // counters are exactly those of a TLB hit through the full pipeline —
  // including the dirty micro-walk, done once per run (it is idempotent and
  // counter-free) and the per-access poison draw — only the set scan is
  // skipped.
  if (memo.vpn == vpn) {
    total += config_.mmu_costs.tlb_hit_ns;
    v.tlb.CountCoalescedHit();
    if (is_write && !memo.dirty_done) {
      const PageTable::WalkResult gpt_leaf =
          process.gpt().Translate(vpn, /*is_write=*/true, /*set_bits=*/true);
      if (gpt_leaf.present) {
        ept_.Translate(gpt_leaf.target, /*is_write=*/true, /*set_bits=*/true);
      }
      memo.dirty_done = true;
    }
    t = memo.tier;
    tr.frame = memo.frame;
    tr.tlb_hit = true;
    translated = true;
    if (fault != nullptr && t < kMaxFaultTiers && poison_armed_[static_cast<size_t>(t)]) {
      poison_drawn = true;
      const FaultSite site = t == kFmemTier ? FaultSite::kPoisonFmem : FaultSite::kPoisonSmem;
      if (fault->ShouldInject(site, id())) {
        memo.vpn = RunMemo::kNone;  // Recovery unmaps + flushes the page.
        total += host_->OnMemoryError(*this, process, vpn, now);
        translated = false;  // Retry through the full translation loop.
      }
    }
  }

  if (!translated) {
    // One poison draw per access: an MCE retires the frame mid-access and
    // the access retries after recovery, which can itself refault (SIGBUS
    // path: guest fault, then EPT fault) — hence the larger armed retry
    // bound. The worst chain is guest fault, EPT fault, poisoned access,
    // then the SIGBUS discard's own guest fault + EPT fault before the
    // access finally lands. A three-tier host can add one swap-in retry
    // (plus one more after a poison recovery repopulates into swap under
    // extreme pressure).
    const int max_attempts = (fault != nullptr ? 5 : 3) + (swap != nullptr ? 2 : 0);
    bool swap_in_place = false;
    for (int attempt = 0;; ++attempt) {
      tr = Translate2D(v.tlb, process.gpt(), ept_, vpn, is_write, config_.mmu_costs);
      total += tr.cost_ns;
      if (!tr.tlb_hit) {
        walk_cost_ns_.Record(static_cast<uint64_t>(tr.cost_ns));
      }
      if (tr.status == TranslateStatus::kOk) {
        const TierIndex ft = mem_->TierOf(tr.frame);
        if (swap != nullptr && ft == kSwapTier && !swap_in_place) {
          // Major fault: the page lives in the far swap tier. The guest
          // blocks while the host swaps it in (device read or in-flight
          // buffer hit, inside SwapInGpa's migration) and promotes it —
          // straight to FMEM when there is headroom, else SMEM.
          ++stats_.swap_ins;
          // A TLB hit short-circuits the walk, leaving tr.gpa_page unset —
          // recover the faulting page's gPA from the GPT before asking the
          // host to swap it in (a real major fault re-walks the same way).
          const PageNum swap_gpa =
              tr.tlb_hit ? process.gpt().Lookup(vpn).target : tr.gpa_page;
          double cost = 0.0;
          if (host_->SwapInGpa(*this, swap_gpa, now, &cost)) {
            FlushGvaAll(vpn);
            total += cost + SingleFlushCost();
            continue;  // Re-translate onto the promoted frame.
          }
          // No free frame anywhere above: access the page in place, far.
          total += cost;
          swap_in_place = true;
        }
        if (fault != nullptr && !poison_drawn && ft < kMaxFaultTiers &&
            poison_armed_[static_cast<size_t>(ft)]) {
          poison_drawn = true;
          const FaultSite site =
              ft == kFmemTier ? FaultSite::kPoisonFmem : FaultSite::kPoisonSmem;
          if (fault->ShouldInject(site, id())) {
            total += host_->OnMemoryError(*this, process, vpn, now);
            continue;  // The access retries once the MCE is handled.
          }
        }
        t = ft;
        break;
      }
      DEMETER_CHECK_LT(attempt, max_attempts) << "translation did not converge for gva " << gva;
      if (tr.status == TranslateStatus::kGuestFault) {
        ++stats_.guest_faults;
        total += config_.mmu_costs.guest_fault_ns;
        double extra = 0.0;
        auto gpa = kernel_->HandleFault(process, vpn, &extra);
        total += extra;
        DEMETER_CHECK(gpa.has_value()) << "guest OOM: vm " << id() << " gva " << gva;
      } else {
        ++stats_.ept_faults;
        total += config_.mmu_costs.ept_fault_ns;
        const FrameId frame = host_->PopulateEpt(*this, tr.gpa_page, now);
        DEMETER_CHECK_NE(frame, kInvalidFrame) << "host OOM populating gpa " << tr.gpa_page;
      }
    }
  }

  const double mem = mem_->tier(t).AccessCost(now, 64, is_write);
  total += mem;
  if (t == kFmemTier) {
    ++stats_.fmem_accesses;
  } else if (t == kSwapTier) {
    ++stats_.swap_accesses;
  } else {
    ++stats_.smem_accesses;
  }
  const double pmi = v.pebs->OnAccess(gva, mem, is_write, now);
  total += pmi;
  if (pmi != 0.0 || t == kSwapTier) {
    // A PMI handler may migrate pages and flush TLBs; a far-tier access
    // must re-fault every time. Either way, no run to continue.
    memo.vpn = RunMemo::kNone;
  } else {
    // Start (or continue) the run. The page is live in the TLB here: a
    // hit kept its entry, a miss just inserted it.
    memo.dirty_done = (memo.vpn == vpn && memo.dirty_done) || is_write;
    memo.vpn = vpn;
    memo.frame = tr.frame;
    memo.tier = t;
  }
  stats_.total_access_ns += total;
  return AccessResult{total, /*cache_hit=*/false, t};
}

void Vm::FlushGvaAll(PageNum vpn) {
  for (auto& v : vcpus_) {
    v->tlb.InvalidatePage(vpn);
  }
}

void Vm::FullFlushAll() {
  for (auto& v : vcpus_) {
    v->tlb.InvalidateAll();
  }
  Tracer* tracer = host_->tracer();
  if (tracer != nullptr && tracer->enabled()) {
    // The flush hits every vCPU; stamp it with the most-advanced clock.
    Nanos now = 0;
    for (const auto& v : vcpus_) {
      now = std::max(now, v->now());
    }
    tracer->Instant("tlb", "full_flush", now, id(), 0,
                    TraceArgs().Add("vcpus", static_cast<uint64_t>(num_vcpus())).str());
  }
}

void Vm::ReleaseStorage() {
  DEMETER_CHECK(departed_) << "vm " << id() << " released while on its host";
  for (auto& v : vcpus_) {
    v->tlb.ReleaseStorage();
    v->pebs->ReleaseStorage();
  }
  ept_.ReleaseStorage();
  kernel_->ReleaseStorage();
}

TlbStats Vm::AggregateTlbStats() const {
  TlbStats total;
  for (const auto& v : vcpus_) {
    total.Merge(v->tlb.stats());
  }
  return total;
}

double Vm::SingleFlushCost() const {
  return config_.mmu_costs.single_flush_ns * static_cast<double>(num_vcpus());
}

double Vm::FullFlushCost() const {
  return config_.mmu_costs.full_flush_ns * static_cast<double>(num_vcpus());
}

double Vm::PageCopyCost(PageNum src_gpa, PageNum dst_gpa, Nanos now) {
  double cost = 0.0;
  const auto src = ept_.Lookup(src_gpa);
  const auto dst = ept_.Lookup(dst_gpa);
  HostMemory& mem = host_->memory();
  uint64_t token = 0;
  if (src.present) {
    const TierIndex st = mem.TierOf(src.target);
    cost += mem.tier(st).AccessCost(now, kPageSize, /*is_write=*/false);
    token = mem.ReadToken(src.target);
  }
  if (dst.present) {
    const TierIndex dt = mem.TierOf(dst.target);
    cost += mem.tier(dt).AccessCost(now, kPageSize, /*is_write=*/true);
    mem.WriteToken(dst.target, token);
  }
  return cost;
}

int Vm::NodeOfVpn(const GuestProcess& process, PageNum vpn) const {
  const auto r = process.gpt().Lookup(vpn);
  if (!r.present) {
    return -1;
  }
  return kernel_->NodeOfGpa(r.target);
}

bool Vm::MovePage(GuestProcess& process, PageNum vpn, int dst_node, Nanos now, double* cost_ns) {
  const auto gpt_entry = process.gpt().Lookup(vpn);
  if (!gpt_entry.present) {
    return false;
  }
  const PageNum old_gpa = gpt_entry.target;
  const int src_node = kernel_->NodeOfGpa(old_gpa);
  if (src_node == dst_node) {
    return false;
  }
  // Backpressure: while the destination's host tier is mid-shrink, the host
  // refuses new placements into it (guest promotion requests bounce).
  const TierIndex dst_tier = host_->TierForNode(dst_node);
  if (host_->TierUnderShrink(dst_tier)) {
    host_->CountShrinkBackpressure(dst_tier);
    return false;
  }
  FaultInjector* fault = host_->fault_injector();
  if (fault != nullptr && fault->ShouldInject(FaultSite::kMigrationFail, id())) {
    return false;
  }
  auto new_gpa = kernel_->AllocGpa(dst_node, /*allow_fallback=*/false, cost_ns);
  if (!new_gpa.has_value()) {
    return false;
  }
  // Back the destination before copying (first touch by the copy loop).
  if (!ept_.Lookup(*new_gpa).present) {
    *cost_ns += config_.mmu_costs.ept_fault_ns;
    const FrameId frame = host_->PopulateEpt(*this, *new_gpa, now);
    if (frame == kInvalidFrame) {
      kernel_->FreeGpa(*new_gpa);
      return false;
    }
  }
  // A far-tier source makes this move a swap-in: the copy's read side pays
  // the device (in-flight hit or seeded read) and releases the slot, so the
  // free-page report below finds no slot to drop.
  SwapDevice* swap = host_->swap();
  if (swap != nullptr) {
    const auto src_ept = ept_.Lookup(old_gpa);
    if (src_ept.present && host_->memory().TierOf(src_ept.target) == kSwapTier) {
      *cost_ns += swap->SlotLoad(src_ept.target, id(), now);
    }
  }
  *cost_ns += PageCopyCost(old_gpa, *new_gpa, now);
  process.gpt().Unmap(vpn);
  FlushGvaAll(vpn);
  *cost_ns += SingleFlushCost() + config_.mmu_costs.migrate_sw_ns;
  DEMETER_CHECK(process.gpt().Map(vpn, *new_gpa, /*writable=*/true));
  kernel_->OnPageMoved(old_gpa, *new_gpa);
  kernel_->FreeGpa(old_gpa);
  // Free-page reporting: the guest tells the host the old page is reusable.
  host_->UnbackGpa(*this, old_gpa, /*flush=*/false);
  if (dst_node == 0) {
    ++stats_.pages_promoted;
  } else if (src_node == 0) {
    ++stats_.pages_demoted;
  }
  return true;
}

bool Vm::SwapPages(GuestProcess& proc_a, PageNum vpn_a, GuestProcess& proc_b, PageNum vpn_b,
                   Nanos now, double* cost_ns) {
  const auto entry_a = proc_a.gpt().Lookup(vpn_a);
  const auto entry_b = proc_b.gpt().Lookup(vpn_b);
  if (!entry_a.present || !entry_b.present) {
    return false;
  }
  FaultInjector* fault = host_->fault_injector();
  if (fault != nullptr && fault->ShouldInject(FaultSite::kMigrationFail, id())) {
    return false;
  }
  const PageNum gpa_a = entry_a.target;
  const PageNum gpa_b = entry_b.target;
  // Ensure both backed (they were touched to become mapped, but be safe).
  for (PageNum gpa : {gpa_a, gpa_b}) {
    if (!ept_.Lookup(gpa).present) {
      *cost_ns += config_.mmu_costs.ept_fault_ns;
      if (host_->PopulateEpt(*this, gpa, now) == kInvalidFrame) {
        return false;
      }
    }
  }
  const FrameId frame_a = ept_.Lookup(gpa_a).target;
  const FrameId frame_b = ept_.Lookup(gpa_b).target;
  HostMemory& mem = host_->memory();
  const TierIndex tier_a = mem.TierOf(frame_a);
  const TierIndex tier_b = mem.TierOf(frame_b);

  // Unmap both sides, then exchange contents through a cacheline-sized
  // buffer (no page allocation — the point of balanced relocation).
  proc_a.gpt().Unmap(vpn_a);
  proc_b.gpt().Unmap(vpn_b);
  FlushGvaAll(vpn_a);
  FlushGvaAll(vpn_b);
  *cost_ns += 2 * SingleFlushCost() + 2 * config_.mmu_costs.migrate_sw_ns;

  *cost_ns += mem.tier(tier_a).AccessCost(now, kPageSize, /*is_write=*/false);
  *cost_ns += mem.tier(tier_b).AccessCost(now, kPageSize, /*is_write=*/false);
  *cost_ns += mem.tier(tier_a).AccessCost(now, kPageSize, /*is_write=*/true);
  *cost_ns += mem.tier(tier_b).AccessCost(now, kPageSize, /*is_write=*/true);
  const uint64_t token_a = mem.ReadToken(frame_a);
  mem.WriteToken(frame_a, mem.ReadToken(frame_b));
  mem.WriteToken(frame_b, token_a);
  // A far-tier side keeps its frame (balanced swap allocates nothing) but
  // exchanges contents: read the old contents back from the device and
  // enqueue a fresh writeback for the new ones. Load-then-store nets out to
  // the same single slot, so the frame<->slot bijection holds.
  SwapDevice* swap = host_->swap();
  if (swap != nullptr) {
    for (const FrameId frame : {frame_a, frame_b}) {
      if (mem.TierOf(frame) == kSwapTier) {
        *cost_ns += swap->SlotLoad(frame, id(), now);
        *cost_ns += swap->SlotStore(frame, id(), now);
      }
    }
  }

  // Cross-remap: each vpn adopts the other's gPA (and thus its node/tier).
  DEMETER_CHECK(proc_a.gpt().Map(vpn_a, gpa_b, /*writable=*/true));
  DEMETER_CHECK(proc_b.gpt().Map(vpn_b, gpa_a, /*writable=*/true));
  kernel_->OnPagesSwapped(gpa_a, gpa_b);

  const int node_a = kernel_->NodeOfGpa(gpa_a);
  const int node_b = kernel_->NodeOfGpa(gpa_b);
  if (node_a != node_b) {
    ++stats_.pages_promoted;
    ++stats_.pages_demoted;
  }
  return true;
}

void Vm::RegisterMetrics(MetricScope scope) {
  MetricScope stats = scope.Sub("stats");
  stats.RegisterCounter("accesses", &stats_.accesses);
  stats.RegisterCounter("writes", &stats_.writes);
  stats.RegisterCounter("cache_hits", &stats_.cache_hits);
  stats.RegisterCounter("guest_faults", &stats_.guest_faults);
  stats.RegisterCounter("ept_faults", &stats_.ept_faults);
  stats.RegisterCounter("fmem_accesses", &stats_.fmem_accesses);
  stats.RegisterCounter("smem_accesses", &stats_.smem_accesses);
  stats.RegisterCounter("pages_promoted", &stats_.pages_promoted);
  stats.RegisterCounter("pages_demoted", &stats_.pages_demoted);
  stats.RegisterCounter("context_switches", &stats_.context_switches);
  stats.RegisterGauge("total_access_ns", &stats_.total_access_ns);
  // Far-tier counters exist only on hosts with a swap device, keeping
  // two-tier metric output unchanged.
  if (host_->swap() != nullptr) {
    stats.RegisterCounter("swap_accesses", &stats_.swap_accesses);
    stats.RegisterCounter("swap_ins", &stats_.swap_ins);
    host_->swap()->RegisterVmMetrics(scope.Sub("swap"), id());
  }

  for (const auto& v : vcpus_) {
    MetricScope vscope = scope.Sub("vcpu" + std::to_string(v->id));
    MetricScope tlb = vscope.Sub("tlb");
    const TlbStats& ts = v->tlb.stats();
    tlb.RegisterCounter("hits", &ts.hits);
    tlb.RegisterCounter("misses", &ts.misses);
    tlb.RegisterCounter("single_flushes", &ts.single_flushes);
    tlb.RegisterCounter("full_flushes", &ts.full_flushes);
    MetricScope pebs = vscope.Sub("pebs");
    // Policies that bring their own sampling config (Demeter, Memtis)
    // replace the vCPU's PebsUnit when they attach — which can happen after
    // this registration on the AdmitVm/AdoptVm paths. Read through the
    // vCPU so the counters always track the live unit.
    const Vcpu* vp = v.get();
    pebs.RegisterCounterFn("events_counted", [vp] { return vp->pebs->stats().events_counted; });
    pebs.RegisterCounterFn("records_written", [vp] { return vp->pebs->stats().records_written; });
    pebs.RegisterCounterFn("records_dropped", [vp] { return vp->pebs->stats().records_dropped; });
    pebs.RegisterCounterFn("pmis", [vp] { return vp->pebs->stats().pmis; });
  }

  // Aggregates over all vCPUs, recomputed at snapshot time.
  MetricScope tlb = scope.Sub("tlb");
  const Vm* self = this;
  tlb.RegisterCounterFn("hits", [self] { return self->AggregateTlbStats().hits; });
  tlb.RegisterCounterFn("misses", [self] { return self->AggregateTlbStats().misses; });
  tlb.RegisterCounterFn("single_flushes",
                        [self] { return self->AggregateTlbStats().single_flushes; });
  tlb.RegisterCounterFn("full_flushes",
                        [self] { return self->AggregateTlbStats().full_flushes; });

  MetricScope kernel = scope.Sub("kernel");
  const GuestKernel::Stats& ks = kernel_->stats();
  kernel.RegisterCounter("faults", &ks.faults);
  kernel.RegisterCounter("fallback_allocs", &ks.fallback_allocs);
  kernel.RegisterCounter("reclaim_events", &ks.reclaim_events);
  kernel.RegisterCounter("oom_failures", &ks.oom_failures);
  kernel.RegisterCounter("sigbus_discards", &ks.sigbus_discards);

  MetricScope mgmt = scope.Sub("mgmt");
  const CpuAccount* account = &mgmt_account_;
  for (int s = 0; s < kNumTmmStages; ++s) {
    const TmmStage stage = static_cast<TmmStage>(s);
    mgmt.RegisterCounterFn(std::string(TmmStageName(stage)) + "_ns", [account, stage] {
      return static_cast<uint64_t>(account->ForStage(stage));
    });
  }
  mgmt.RegisterCounterFn("total_ns",
                         [account] { return static_cast<uint64_t>(account->Total()); });

  MetricScope mmu = scope.Sub("mmu");
  mmu.RegisterDistribution("walk_cost_ns", &walk_cost_ns_);
}

double Vm::OnContextSwitch(int vcpu_id, Nanos now) {
  ++stats_.context_switches;
  return config_.mmu_costs.context_switch_ns + kernel_->OnContextSwitch(vcpu_id, now);
}

}  // namespace demeter
