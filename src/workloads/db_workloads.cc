#include "src/workloads/db_workloads.h"

#include "src/base/logging.h"

namespace demeter {

// ---- BtreeWorkload ----------------------------------------------------------

BtreeWorkload::BtreeWorkload(BtreeConfig config) : config_(config) {
  footprint_bytes_ = config.footprint_bytes;
}

void BtreeWorkload::Setup(GuestProcess& process, Rng& rng) {
  (void)rng;
  constexpr uint64_t kFanout = uint64_t{1} << kFanoutBits;
  // Size the tree: leaves consume most of the footprint.
  leaf_count_ = config_.footprint_bytes >> kNodeBytesBits;
  // Level sizes from leaf upward: n, n/fanout, ..., 1.
  std::vector<uint64_t> sizes;
  uint64_t n = leaf_count_;
  while (n > 1) {
    sizes.push_back(n);
    n = (n + kFanout - 1) / kFanout;
  }
  sizes.push_back(1);
  levels_ = static_cast<int>(sizes.size());
  // Allocate root-first so upper levels are contiguous and early in the heap.
  level_base_.resize(sizes.size());
  for (size_t l = 0; l < sizes.size(); ++l) {
    level_base_[l] = process.HeapAlloc(sizes[sizes.size() - 1 - l] << kNodeBytesBits);
  }
}

void BtreeWorkload::NextBatch(int worker, size_t count, Rng& rng, std::vector<AccessOp>* ops) {
  (void)worker;
  const size_t levels = static_cast<size_t>(levels_);
  const size_t lookups = count / levels;
  // Appended op by op, so no slot is value-initialised first; the harness
  // reuses one batch vector, whose capacity is already there.
  for (size_t i = 0; i < lookups; ++i) {
    const uint64_t key = rng.NextBelow(leaf_count_);
    // Descend: the node at level l is key / fanout^(levels-1-l). Level l
    // holds ceil(leaf_count_ / fanout^k) nodes for k = levels-1-l, and
    // key < leaf_count_, so that index is always in range.
    int shift = kFanoutBits * (levels_ - 1);
    for (size_t l = 0; l < levels; ++l, shift -= kFanoutBits) {
      ops->push_back(
          AccessOp{level_base_[l] + ((key >> shift) << kNodeBytesBits), /*is_write=*/false});
    }
  }
}

// ---- SiloYcsb ----------------------------------------------------------------

SiloYcsb::SiloYcsb(SiloConfig config) : config_(config) {
  footprint_bytes_ = config.footprint_bytes;
}

void SiloYcsb::Setup(GuestProcess& process, Rng& rng) {
  (void)rng;
  // ~1/16 of the footprint is index, the rest records.
  index_bytes_ = PageCeil(config_.footprint_bytes / 16);
  const uint64_t record_bytes_total = config_.footprint_bytes - index_bytes_;
  index_base_ = process.HeapAlloc(index_bytes_);
  records_base_ = process.HeapAlloc(record_bytes_total);
  num_records_ = record_bytes_total / config_.record_bytes;
  DEMETER_CHECK_GT(num_records_, 0u);
}

void SiloYcsb::NextBatch(int worker, size_t count, Rng& rng, std::vector<AccessOp>* ops) {
  (void)worker;
  const size_t per_txn = static_cast<size_t>(OpsPerTransaction());
  const size_t txns = count / per_txn;
  for (size_t t = 0; t < txns; ++t) {
    ++txn_counter_;
    if (txn_counter_ % config_.drift_period_txns == 0) {
      // Hotspot drift: the popular keys move through the keyspace.
      drift_offset_ = (drift_offset_ + static_cast<uint64_t>(config_.drift_step_fraction *
                                                             static_cast<double>(num_records_))) %
                      num_records_;
    }
    // Index traversal (B-tree interior nodes: compact, hot).
    for (int i = 0; i < config_.index_reads_per_txn; ++i) {
      const uint64_t slot = rng.NextZipf(index_bytes_ / 64, 0.6) * 64;
      ops->push_back(AccessOp{index_base_ + slot, false});
    }
    // Record read-modify-writes with drifting zipfian popularity.
    for (int i = 0; i < config_.records_per_txn; ++i) {
      const uint64_t rank = rng.NextZipf(num_records_, config_.zipf_theta);
      const uint64_t key = (rank + drift_offset_) % num_records_;
      const uint64_t addr = records_base_ + key * config_.record_bytes;
      ops->push_back(AccessOp{addr, false});
      ops->push_back(AccessOp{addr, true});
    }
  }
}

}  // namespace demeter
