// Deterministic pseudo-random number generation.
//
// All simulation randomness flows through Rng so that experiments are exactly
// reproducible from a seed. The core generator is xoshiro256**, seeded via
// SplitMix64 (the initialization recommended by its authors).

#ifndef DEMETER_SRC_BASE_RNG_H_
#define DEMETER_SRC_BASE_RNG_H_

#include <cstdint>

namespace demeter {

// SplitMix64 step; also usable standalone for cheap hashing.
constexpr uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// The constants of Zipf(n, theta) rejection-inversion sampling (Hörmann &
// Derflinger 1996): five pow() evaluations that depend only on (n, theta).
struct ZipfSetup {
  ZipfSetup() = default;
  ZipfSetup(uint64_t n, double theta);

  uint64_t n = 0;
  double theta = 0.0;
  double q = 0.0;
  double one_minus_q = 0.0;
  double one_minus_q_inv = 0.0;
  double h_x1 = 0.0;
  double h_n = 0.0;
  double s = 0.0;
};

// One pass of NextZipf's rejection loop on the uniform integer
// bits = Next() >> 11, in two steps: ZipfInvert maps bits to the uniform u
// and x = h_inv(u) (the pass's one pow()), and ZipfTrial rounds x to a rank
// k in [1, n] and returns k, with kZipfRejected set when the pass rejects it.
struct ZipfPoint {
  double u;
  double x;
};
constexpr uint64_t kZipfRejected = uint64_t{1} << 63;
ZipfPoint ZipfInvert(const ZipfSetup& setup, uint64_t bits);
uint64_t ZipfTrial(const ZipfSetup& setup, ZipfPoint point);

// The guide table of (n, theta) (Chen & Asau 1974): one cell per value of
// the top kZipfTableBits bits of `bits`. A cell holds the rank when every
// `bits` in it gives that accepted rank, kZipfCellReject when every one
// rejects, and kZipfCellMixed otherwise, so NextZipf consumes the same
// Next() values and returns the same ranks with or without the table. A
// cell is one byte, an offset from its block's base rank (a block is 256
// cells), so a pair's table takes 64.5 KiB; a cell whose rank lies 254 or
// more above its block's lowest is left mixed.
//
// The build evaluates ZipfInvert once at each of the 65,537 cell edges. u
// is monotone in bits, and the exact pow() of u's base is monotone too, so
// every draw in a cell has u between its edges' u and x within pow()'s
// error (under 1 ULP) of the interval between the edges' x. ZipfTrial's
// rounding and its squeeze test are monotone in x and its other test is
// monotone in u, so a cell is filled only when ZipfTrial agrees at the two
// extreme corners of that box, each edge x moved outward by 4 ULP.
// Exactness needs pow() to stay within that margin, not to be monotone.
//
// Tables live in one process-wide registry keyed by (n, bit pattern of
// theta), are built on first use and are never freed. ZipfTableFor returns
// nullptr when n > kZipfTableMaxN, since block bases are uint16_t ranks.
constexpr int kZipfTableBits = 16;
constexpr uint64_t kZipfCells = uint64_t{1} << kZipfTableBits;
// The cell of `bits` is bits >> kZipfCellShift.
constexpr int kZipfCellShift = 53 - kZipfTableBits;
constexpr int kZipfBlockBits = 8;
constexpr uint64_t kZipfTableMaxN = 65536;
constexpr uint8_t kZipfCellMixed = 0;
constexpr uint8_t kZipfCellReject = 0xFF;

struct ZipfTable {
  // The rank of a cell that is neither mixed nor reject.
  uint64_t Rank(uint64_t cell) const {
    return block_base[cell >> kZipfBlockBits] + cells[cell] - 1;
  }

  uint16_t block_base[kZipfCells >> kZipfBlockBits];
  uint8_t cells[kZipfCells];
};
const ZipfTable* ZipfTableFor(const ZipfSetup& setup);

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eed5eed5eed5eedULL) { Seed(seed); }

  void Seed(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& word : state_) {
      word = SplitMix64(sm);
    }
  }

  // Uniform 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound must be non-zero.
  uint64_t NextBelow(uint64_t bound) {
    // Lemire's multiply-shift rejection-free approximation is adequate here:
    // the slight modulo bias of a plain multiply-high is far below the noise
    // floor of every experiment, and it is branch-free.
    return static_cast<uint64_t>(
        (static_cast<__uint128_t>(Next()) * static_cast<__uint128_t>(bound)) >> 64);
  }

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0); }

  // Bernoulli draw with probability p.
  bool NextBool(double p) { return NextDouble() < p; }

  // Zipfian rank in [0, n) with exponent theta, via the rejection-inversion
  // method of Hörmann & Derflinger. Suitable for large n.
  uint64_t NextZipf(uint64_t n, double theta);

 private:
  static constexpr uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  // Workloads draw millions of ranks from a handful of fixed distributions,
  // so a small round-robin cache keeps each pair's setup and guide table,
  // fetched when the slot is filled. n == 0 marks an empty slot (NextZipf
  // never caches n <= 1).
  struct ZipfSlot {
    ZipfSetup setup;
    const ZipfTable* table = nullptr;
  };
  static constexpr int kZipfCacheSlots = 4;

  uint64_t state_[4];
  ZipfSlot zipf_cache_[kZipfCacheSlots];
  int zipf_next_slot_ = 0;
};

}  // namespace demeter

#endif  // DEMETER_SRC_BASE_RNG_H_
