#include "src/base/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

namespace demeter {

namespace {

constexpr uint64_t kZipfBlockCells = uint64_t{1} << kZipfBlockBits;
// How far the build moves each edge x outward, in adjacent doubles. A draw's
// x lies within twice pow()'s error (under 1 ULP) of its edges' x: 4 steps,
// even where x crosses a power of 2 and the steps below it halve.
constexpr int64_t kZipfMarginUlps = 4;

// x moved by `ulps` adjacent doubles; x must be positive and finite.
double NudgeUlps(double x, int64_t ulps) {
  return std::bit_cast<double>(std::bit_cast<int64_t>(x) + ulps);
}

std::unique_ptr<ZipfTable> BuildZipfTable(const ZipfSetup& setup) {
  auto table = std::make_unique<ZipfTable>();  // every cell kZipfCellMixed
  ZipfPoint left = ZipfInvert(setup, 0);
  for (uint64_t block = 0; block < kZipfCells; block += kZipfBlockCells) {
    // ZipfTrial's common result over each cell, 0 when the corners differ.
    uint64_t trials[kZipfBlockCells] = {};
    uint64_t lowest = UINT64_MAX;
    for (uint64_t i = 0; i < kZipfBlockCells; ++i) {
      const ZipfPoint right = ZipfInvert(setup, (block + i + 1) << kZipfCellShift);
      const double x_lo = std::min(left.x, right.x);
      if (std::isfinite(left.x) && std::isfinite(right.x) && x_lo > 0.0) {
        const ZipfPoint low{std::min(left.u, right.u), NudgeUlps(x_lo, -kZipfMarginUlps)};
        const ZipfPoint high{std::max(left.u, right.u),
                             NudgeUlps(std::max(left.x, right.x), kZipfMarginUlps)};
        const uint64_t k = ZipfTrial(setup, low);
        if (k == ZipfTrial(setup, high)) {
          trials[i] = k;
          if ((k & kZipfRejected) == 0) {
            lowest = std::min(lowest, k);
          }
        }
      }
      left = right;
    }
    // Cells hold rank + 1 - block_base, so 0 stays kZipfCellMixed.
    const uint64_t base = lowest == UINT64_MAX ? 0 : lowest - 1;
    table->block_base[block >> kZipfBlockBits] = static_cast<uint16_t>(base);
    for (uint64_t i = 0; i < kZipfBlockCells; ++i) {
      uint8_t& cell = table->cells[block + i];
      if ((trials[i] & kZipfRejected) != 0) {
        cell = kZipfCellReject;
      } else if (trials[i] != 0 && trials[i] - base < kZipfCellReject) {
        cell = static_cast<uint8_t>(trials[i] - base);
      }
    }
  }
  return table;
}

}  // namespace

ZipfSetup::ZipfSetup(uint64_t n, double theta) : n(n), theta(theta) {
  // theta != 1 is assumed for the closed-form H; theta == 1 is nudged slightly.
  q = theta == 1.0 ? 1.0 + 1e-9 : theta;
  one_minus_q = 1.0 - q;
  one_minus_q_inv = 1.0 / one_minus_q;
  auto h = [&](double x) { return std::pow(x, one_minus_q) * one_minus_q_inv; };
  auto h_inv = [&](double x) { return std::pow(one_minus_q * x, one_minus_q_inv); };
  h_x1 = h(1.5) - 1.0;
  h_n = h(static_cast<double>(n) + 0.5);
  s = 2.0 - h_inv(h(2.5) - std::pow(2.0, -q));
}

ZipfPoint ZipfInvert(const ZipfSetup& setup, uint64_t bits) {
  const double uniform = static_cast<double>(bits) * (1.0 / 9007199254740992.0);
  const double u = setup.h_n + uniform * (setup.h_x1 - setup.h_n);
  return {u, std::pow(setup.one_minus_q * u, setup.one_minus_q_inv)};
}

uint64_t ZipfTrial(const ZipfSetup& setup, ZipfPoint point) {
  uint64_t k = static_cast<uint64_t>(point.x + 0.5);
  if (k < 1) {
    k = 1;
  } else if (k > setup.n) {
    k = setup.n;
  }
  const double kd = static_cast<double>(k);
  if (kd - point.x <= setup.s ||
      point.u >= std::pow(kd + 0.5, setup.one_minus_q) * setup.one_minus_q_inv -
                     std::pow(kd, -setup.q)) {
    return k;
  }
  return k | kZipfRejected;
}

const ZipfTable* ZipfTableFor(const ZipfSetup& setup) {
  if (setup.n > kZipfTableMaxN) {
    return nullptr;
  }
  static std::mutex mu;
  static auto& tables = *new std::map<std::pair<uint64_t, uint64_t>, std::unique_ptr<ZipfTable>>();
  const std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<ZipfTable>& table = tables[{setup.n, std::bit_cast<uint64_t>(setup.theta)}];
  if (table == nullptr) {
    table = BuildZipfTable(setup);
  }
  return table.get();
}

uint64_t Rng::NextZipf(uint64_t n, double theta) {
  // Rejection-inversion sampling (Hörmann & Derflinger 1996).
  if (n <= 1) {
    return 0;
  }

  ZipfSlot* slot = nullptr;
  for (ZipfSlot& candidate : zipf_cache_) {
    if (candidate.setup.n == n && candidate.setup.theta == theta) {
      slot = &candidate;
      break;
    }
  }
  if (slot == nullptr) {
    slot = &zipf_cache_[zipf_next_slot_];
    zipf_next_slot_ = (zipf_next_slot_ + 1) % kZipfCacheSlots;
    const ZipfSetup setup(n, theta);
    *slot = ZipfSlot{setup, ZipfTableFor(setup)};
  }

  const ZipfTable* table = slot->table;
  for (;;) {
    const uint64_t bits = Next() >> 11;
    if (table != nullptr) {
      const uint64_t cell = bits >> kZipfCellShift;
      if (table->cells[cell] == kZipfCellReject) {
        continue;
      }
      if (table->cells[cell] != kZipfCellMixed) {
        return table->Rank(cell);
      }
    }
    const uint64_t k = ZipfTrial(slot->setup, ZipfInvert(slot->setup, bits));
    if ((k & kZipfRejected) == 0) {
      return k - 1;
    }
  }
}

}  // namespace demeter
