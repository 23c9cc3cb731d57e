// Deterministic fault injection for the simulated stack.
//
// A FaultPlan is a declarative schedule of fault behaviours — balloon
// request delay/drop, guest stall and crash windows, virtqueue-full
// backpressure, PEBS sample loss, migration failure, and transient tier
// exhaustion — parsed from the `--faults=SPEC` bench flag. The plan is pure
// data; a faulted run and its fault-free twin run at the same base seed, so
// the difference between them is the faults alone.
//
// A FaultInjector turns the plan into deterministic decisions. Probability
// sites draw from a dedicated Rng stream per (site, vm), seeded from the
// machine seed and a SplitMix64-mixed (vm, site) key — streams never
// interleave, so adding a fault kind to the plan perturbs only its own
// site — and time-window sites (stall/crash) are pure functions of virtual
// time with no randomness at all. Sites with zero probability never draw,
// which keeps an armed-but-irrelevant site from consuming stream state.
//
// Everything here is observer-plus-actuator for the subsystems that opt in
// via explicit hooks (src/balloon, src/virtio, src/pebs, src/hyper/vm.cc,
// src/guest/kernel.cc). With an empty plan no injector exists at all and
// every hook is a null-pointer check — fault-free runs stay byte-identical
// to a build without this subsystem.

#ifndef DEMETER_SRC_FAULT_FAULT_H_
#define DEMETER_SRC_FAULT_FAULT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/telemetry/metrics.h"

namespace demeter {

// One enumerator per injection site. Names (FaultSiteName) key the
// per-VM `vm<i>/fault/<site>_injected` counters.
enum class FaultSite : int {
  kBalloonDelay = 0,   // Guest balloon driver defers a request.
  kBalloonDrop,        // Guest balloon driver loses a request.
  kGuestStall,         // Request arrived inside a stall window.
  kGuestCrash,         // Request arrived inside a crash window.
  kVirtqueueFull,      // Ring at capacity; push refused.
  kPebsSampleLoss,     // PEBS buffer overflow; record lost.
  kMigrationFail,      // Guest-side page migration aborted.
  kTierExhaustion,     // Preferred guest node transiently dry.
  kPoisonFmem,         // Uncorrectable error in a mapped FMEM frame.
  kPoisonSmem,         // Uncorrectable error in a mapped SMEM frame.
  kSwapFail,           // Transient swap-device I/O error (writeback/swap-in).
  kLiveMigrateFail,    // Cluster live migration aborted mid-copy.
  kHostFail,           // Whole host fail-stopped for a window.
};

inline constexpr int kNumFaultSites = 13;

// Host tiers addressable by tiered fault keys (`...@tier`). Matches the
// two-tier host model (kFmemTier/kSmemTier).
inline constexpr int kMaxFaultTiers = 2;

// Hosts addressable by per-host fault keys (`...@host`). Matches the
// cluster fleet ceiling (bench/cluster_fleet sweeps up to 8 hosts).
inline constexpr int kMaxFaultHosts = 8;

const char* FaultSiteName(FaultSite site);

// Declarative fault schedule. All probabilities are per-opportunity
// Bernoulli parameters in [0, 1]; durations are virtual nanoseconds.
//
// Spec grammar (comma-separated `key=value` tokens, all optional):
//   bdelay=P/DUR   balloon request delayed by DUR with probability P
//   bdrop=P        balloon request dropped with probability P
//   stall=DUR/PER  guest stalled for DUR at the start of every PER
//   crash=DUR/PER  guest crashed for DUR at the start of every PER
//                  (in-window balloon requests are lost, not deferred)
//   vqcap=N        virtqueue capacity N (0/absent = unbounded)
//   pebsdrop=P     PEBS record lost with probability P
//   migfail=P      guest page migration fails with probability P
//   tierex=P       preferred-node allocation transiently fails with prob. P
//   poison=P@T     per-access probability P of an uncorrectable memory
//                  error (hwpoison) in the accessed frame when it lives in
//                  host tier T (0 = FMEM, 1 = SMEM); at most one tier each
//   tiershrink=F/DUR/PER@T
//                  host tier T loses fraction F of its capacity for DUR at
//                  the start of every PER (co-tenant pressure / link flap)
//   swapfail=P/DUR swap-device I/O (writeback or swap-in) fails transiently
//                  with probability P; the writeback queue retries after a
//                  DUR backoff per failed attempt
//   migratefail=P/DUR@H
//                  a cluster live migration leaving host H aborts with
//                  probability P once its cumulative pre-copy work crosses
//                  DUR (mid-copy, so the abort exercises source-side
//                  rollback); at most one token per host, H in [0, 7]
//   hostfail=P/DUR@H
//                  host H fail-stops with probability P, drawn once per
//                  cluster barrier, and stays dark for DUR (the fleet's
//                  failure detector fences it and kills resident VMs); at
//                  most one token per host, H in [0, 7]
// Durations accept ns/us/ms/s suffixes (plain digits = ns). Windows start
// one period in (never at t=0, which would fault the boot-time provisioning
// of every run identically and uninterestingly). Duplicate keys are an
// error — tiered keys may appear once per tier.
struct TierShrink {
  double frac = 0.0;  // Fraction of tier capacity carved out, in (0, 1].
  Nanos duration_ns = 0;
  Nanos period_ns = 0;

  friend bool operator==(const TierShrink&, const TierShrink&) = default;
};

struct FaultPlan {
  double balloon_delay_p = 0.0;
  Nanos balloon_delay_ns = 0;
  double balloon_drop_p = 0.0;
  Nanos stall_duration_ns = 0;
  Nanos stall_period_ns = 0;
  Nanos crash_duration_ns = 0;
  Nanos crash_period_ns = 0;
  uint64_t vq_capacity = 0;  // 0 = unbounded.
  double pebs_drop_p = 0.0;
  double migration_fail_p = 0.0;
  double tier_exhaust_p = 0.0;
  std::array<double, kMaxFaultTiers> poison_p{};          // Indexed by tier.
  std::array<TierShrink, kMaxFaultTiers> tier_shrink{};   // Indexed by tier.
  double swap_fail_p = 0.0;
  Nanos swap_retry_backoff_ns = 0;
  std::array<double, kMaxFaultHosts> migrate_fail_p{};       // Indexed by host.
  std::array<Nanos, kMaxFaultHosts> migrate_fail_abort_ns{};  // Indexed by host.
  std::array<double, kMaxFaultHosts> host_fail_p{};          // Indexed by host.
  std::array<Nanos, kMaxFaultHosts> host_fail_down_ns{};     // Indexed by host.

  // True when the plan injects nothing at all (the default).
  bool empty() const;

  // Parses a spec string. Returns nullopt (and sets *error when given) on
  // bad syntax or out-of-range values. An empty string is a valid empty
  // plan.
  static std::optional<FaultPlan> Parse(const std::string& spec, std::string* error = nullptr);

  // Bernoulli parameter governing a probability site (0 for window sites
  // and kVirtqueueFull, which are not probability-driven).
  double probability(FaultSite site) const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

// Deterministic decision engine for one Machine. Owned by the harness and
// shared by every VM through Hypervisor::fault_injector(); created only
// when the plan is non-empty, so subsystem hooks gate on a null check.
class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, uint64_t seed);

  const FaultPlan& plan() const { return plan_; }
  bool active() const { return !plan_.empty(); }

  // Bernoulli draw for `site` on `vm`'s private stream; counts an injection
  // when it fires. Zero-probability sites return false without drawing.
  bool ShouldInject(FaultSite site, int vm);

  // True when `site` can ever fire (plan probability > 0). Hot paths may
  // cache this and skip the per-opportunity ShouldInject call for unarmed
  // sites — observationally identical, because zero-probability sites never
  // draw (stream state is untouched either way).
  bool Arms(FaultSite site) const { return plan_.probability(site) > 0.0; }

  // Records a non-Bernoulli injection (window hits, ring backpressure).
  void Count(FaultSite site, int vm);

  // Bernoulli draw for the live-migration-abort site on `host`'s private
  // stream (the cluster owns one injector and keys this site by source
  // host, not VM); counts an injection when it fires. Hosts with a
  // zero-probability plan return false without drawing.
  bool ShouldFailMigration(int host);

  // Cumulative pre-copy work after which an armed abort fires for
  // migrations leaving `host`.
  Nanos MigrationAbortAfter(int host) const;

  // Bernoulli draw for the whole-host fail-stop site on `host`'s private
  // stream (the cluster draws once per barrier per up host); counts an
  // injection when it fires. Hosts with a zero-probability plan return
  // false without drawing.
  bool ShouldFailHost(int host);

  // How long `host` stays dark once a fail-stop fires.
  Nanos HostFailDuration(int host) const;

  // Stall/crash windows: window k covers [k*period, k*period + duration)
  // for k >= 1. Pure functions of virtual time.
  bool InStallWindow(Nanos now) const;
  Nanos StallWindowEnd(Nanos now) const;  // Meaningful only when in-window.
  bool InCrashWindow(Nanos now) const;
  Nanos CrashWindowEnd(Nanos now) const;

  // Tier-shrink windows, same k>=1 schedule per configured tier.
  bool InShrinkWindow(int tier, Nanos now) const;
  Nanos ShrinkWindowEnd(int tier, Nanos now) const;
  // Start of the first shrink window strictly after `now` for `tier`, or 0
  // when the tier has no shrink schedule (the harness arms window events
  // from this).
  Nanos NextShrinkWindowStart(int tier, Nanos now) const;

  uint64_t injected(FaultSite site, int vm) const;
  uint64_t total_injected(FaultSite site) const;

  // Registers `vm`'s per-site injection counters under `scope` (the
  // harness passes "vm<i>/fault") as "<site>_injected".
  void RegisterVmMetrics(MetricScope scope, int vm);

 private:
  struct VmState {
    std::array<Rng, kNumFaultSites> rngs;
    std::array<uint64_t, kNumFaultSites> injected{};
  };

  VmState& state(int vm);

  FaultPlan plan_;
  uint64_t seed_;
  // unique_ptr elements keep counter addresses stable across growth (the
  // metric registry holds raw pointers into VmState::injected).
  std::vector<std::unique_ptr<VmState>> vms_;
};

}  // namespace demeter

#endif  // DEMETER_SRC_FAULT_FAULT_H_
