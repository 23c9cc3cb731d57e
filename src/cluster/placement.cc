#include "src/cluster/placement.h"

#include "src/base/logging.h"

namespace demeter {

namespace {

double Headroom(const HostLoad& load) {
  // Far-tier frames are worth half a near frame to a newcomer: its pages
  // start there when FMEM is tight.
  return static_cast<double>(load.fmem_free_pages) +
         0.5 * static_cast<double>(load.far_free_pages);
}

double Damage(const HostLoad& load) {
  // Every frame of far pressure or damage history costs a tenth — enough to
  // steer identical-capacity fleets away from battered hosts without
  // overriding real headroom gaps. Health history weighs heavier: an
  // aborted migration at a host costs a full frame-equivalent and a
  // whole-host crash costs 64 — a recently resurrected host must rebuild
  // trust before it wins close calls, but a large genuine headroom gap
  // still dominates.
  return 0.1 * static_cast<double>(load.far_used_pages + load.poisoned_pages +
                                   load.carved_pages) +
         static_cast<double>(load.migration_aborts) + 64.0 * static_cast<double>(load.failures);
}

}  // namespace

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kFirstFit:
      return "first-fit";
    case PlacementPolicy::kBestFit:
      return "best-fit";
    case PlacementPolicy::kSpread:
      return "spread";
  }
  return "?";
}

PlacementPolicy PlacementPolicyFromName(const std::string& name) {
  if (name == "first-fit") {
    return PlacementPolicy::kFirstFit;
  }
  if (name == "best-fit") {
    return PlacementPolicy::kBestFit;
  }
  if (name == "spread") {
    return PlacementPolicy::kSpread;
  }
  DEMETER_CHECK(false) << "unknown placement policy '" << name << "'";
  return PlacementPolicy::kFirstFit;
}

double PlacementController::Score(const HostLoad& load) { return Headroom(load) - Damage(load); }

int PlacementController::PickFallbackHost(const std::vector<HostLoad>& loads) {
  // Tier 1: healthy. Tier 2: shrinking. Tier 3: quarantined. A lower tier
  // always beats a higher one; inside a tier the roomiest host (free frames
  // across both tiers, lowest index on ties) wins.
  int best = -1;
  int best_tier = 4;
  uint64_t best_room = 0;
  for (int h = 0; h < static_cast<int>(loads.size()); ++h) {
    const HostLoad& load = loads[static_cast<size_t>(h)];
    if (load.down || load.excluded) {
      continue;
    }
    const int tier = load.quarantined ? 3 : load.shrinking ? 2 : 1;
    const uint64_t room = load.fmem_free_pages + load.far_free_pages;
    if (tier < best_tier || (tier == best_tier && room > best_room)) {
      best = h;
      best_tier = tier;
      best_room = room;
    }
  }
  return best;
}

bool PlacementController::Eligible(const HostLoad& load, uint64_t pages_needed,
                                   uint64_t fmem_pages_needed) const {
  if (load.excluded || load.shrinking || load.down || load.quarantined) {
    return false;
  }
  // Two constraints, and the second is the one that matters at scale. The
  // total-room check (with the headroom reserve kept free even after this
  // placement) guards against OOM: lazily backed tenants grow toward their
  // full commitment after admission, and shrink windows carve capacity with
  // no warning. The FMEM check guards against thrash: the newcomer's hot
  // set must fit in the near tier's uncommitted frames, because a host
  // whose remaining room is all SMEM will accept VMs by byte count forever
  // while every resident hot set fights over the same exhausted FMEM.
  const uint64_t reserve =
      static_cast<uint64_t>(headroom_ * static_cast<double>(load.capacity_pages));
  return load.fmem_free_pages >= fmem_pages_needed &&
         load.fmem_free_pages + load.far_free_pages >= pages_needed + reserve;
}

int PlacementController::PickHost(const std::vector<HostLoad>& loads, uint64_t pages_needed,
                                  uint64_t fmem_pages_needed) {
  int best = -1;
  double best_key = 0.0;
  for (int h = 0; h < static_cast<int>(loads.size()); ++h) {
    const HostLoad& load = loads[static_cast<size_t>(h)];
    if (!Eligible(load, pages_needed, fmem_pages_needed)) {
      continue;
    }
    switch (policy_) {
      case PlacementPolicy::kFirstFit:
        ++stats_.placements;
        return h;
      case PlacementPolicy::kBestFit: {
        // Tightest fit: the smallest headroom still big enough, with damage
        // added so a battered host loses to an equally tight clean one.
        // Strict `<` keeps the lowest index on ties.
        const double key = Headroom(load) + Damage(load);
        if (best < 0 || key < best_key) {
          best = h;
          best_key = key;
        }
        break;
      }
      case PlacementPolicy::kSpread: {
        const HostLoad* incumbent = best < 0 ? nullptr : &loads[static_cast<size_t>(best)];
        if (incumbent == nullptr || load.resident_vms < incumbent->resident_vms ||
            (load.resident_vms == incumbent->resident_vms && Score(load) > best_key)) {
          best = h;
          best_key = Score(load);
        }
        break;
      }
    }
  }
  if (best >= 0) {
    ++stats_.placements;
  } else {
    ++stats_.rejects;
  }
  return best;
}

}  // namespace demeter
