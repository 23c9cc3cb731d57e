// Fleet-level VM placement: given a per-host load summary, pick the host a
// new (or migrating) VM should land on.
//
// Scoring folds three pressures the paper's cloud operator cares about:
// FMEM headroom (the scarce tier a tiered-memory VM actually wants), far-tier
// pressure (a host whose SMEM/swap is already loaded will demote the
// newcomer's pages immediately), and damage history (frames lost to hwpoison
// or currently carved out by a shrink window — a host that keeps losing
// capacity is a bad landlord). Hosts inside an active FMEM shrink window are
// never chosen: evacuations target them as *sources*, so handing them new
// tenants would fight the migrator.
//
// All decisions are pure functions of the load vector — no randomness, ties
// break toward the lowest host index — so placement is deterministic across
// --jobs values and platforms.

#ifndef DEMETER_SRC_CLUSTER_PLACEMENT_H_
#define DEMETER_SRC_CLUSTER_PLACEMENT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace demeter {

enum class PlacementPolicy {
  kFirstFit,  // Lowest-index host with room (packs the fleet left).
  kBestFit,   // Eligible host with the tightest sufficient headroom.
  kSpread,    // Fewest resident VMs; headroom breaks ties.
};

const char* PlacementPolicyName(PlacementPolicy policy);
PlacementPolicy PlacementPolicyFromName(const std::string& name);

// What the controller knows about one host at decision time. The cluster
// fills this from *committed* machine state: live free counts minus the
// pages resident VMs are promised but have not lazily touched yet (plus
// reservations for VMs placed in the same batch but not yet provisioned,
// and the full commitment of any migration already routed at the host).
struct HostLoad {
  uint64_t fmem_free_pages = 0;
  uint64_t far_free_pages = 0;   // SMEM (+ swap) frames still free.
  uint64_t capacity_pages = 0;   // Total frames across every tier.
  uint64_t far_used_pages = 0;   // Far-tier pressure already resident.
  uint64_t poisoned_pages = 0;   // Frames permanently retired by hwpoison.
  uint64_t carved_pages = 0;     // Frames currently carved out by shrink.
  int resident_vms = 0;          // Active + same-batch-assigned VMs.
  bool shrinking = false;        // FMEM under an active shrink window.
  bool excluded = false;         // Caller veto (e.g. the migration source).
  bool down = false;             // Fail-stopped: fenced, never placeable.
  bool quarantined = false;      // Back up but on probation after a crash.
  uint64_t failures = 0;           // Health ledger: whole-host crashes.
  uint64_t migration_aborts = 0;   // Health ledger: aborted routes at host.
};

class PlacementController {
 public:
  // `headroom` is the fraction of each host's total capacity the controller
  // refuses to commit: the slack that absorbs shrink-window carves and the
  // growth slop of lazily-backed tenants. 0 disables the reserve.
  explicit PlacementController(PlacementPolicy policy, double headroom = 0.0)
      : policy_(policy), headroom_(headroom) {}

  // Picks a host able to take `pages_needed` more pages — of which
  // `fmem_pages_needed` is the VM's hot-set share that must still fit in
  // uncommitted FMEM — while keeping the headroom reserve free, or -1 when
  // no eligible host has room. Counts a placement or a reject either way.
  int PickHost(const std::vector<HostLoad>& loads, uint64_t pages_needed,
               uint64_t fmem_pages_needed = 0);

  // Headroom (pages a newcomer can use: full-weight FMEM, half-weight far
  // tier) minus damage (far-tier pressure and damage history, in
  // page-equivalents); may go negative on a battered host. Spread takes the
  // highest score and best-fit the least headroom plus damage, so a damaged
  // host loses close calls under both.
  static double Score(const HostLoad& load);

  // Last-resort host for a VM that must land somewhere even though no host
  // passes Eligible (boot-time placement cannot defer forever). Tiered
  // preference, roomiest (fmem + far free, lowest index on ties) inside
  // each tier:
  //   1. healthy hosts (not shrinking, not quarantined),
  //   2. actively-shrinking hosts (they still have real frames — the
  //      migrator will move the newcomer later if the squeeze holds),
  //   3. quarantined hosts (alive but on post-crash probation).
  // Down or excluded hosts are never returned: placing onto a fenced host
  // would violate the down-host fencing invariant. -1 when every host is
  // down/excluded.
  static int PickFallbackHost(const std::vector<HostLoad>& loads);

  struct Stats {
    uint64_t placements = 0;
    uint64_t rejects = 0;
  };

  PlacementPolicy policy() const { return policy_; }
  const Stats& stats() const { return stats_; }

 private:
  bool Eligible(const HostLoad& load, uint64_t pages_needed, uint64_t fmem_pages_needed) const;

  PlacementPolicy policy_;
  double headroom_;
  Stats stats_;
};

}  // namespace demeter

#endif  // DEMETER_SRC_CLUSTER_PLACEMENT_H_
