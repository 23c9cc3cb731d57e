// Database workloads: btree (uniform with traversal hubs) and Silo running
// YCSB (OLTP with a dynamically shifting zipfian hotspot).

#ifndef DEMETER_SRC_WORKLOADS_DB_WORKLOADS_H_
#define DEMETER_SRC_WORKLOADS_DB_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "src/workloads/workload.h"

namespace demeter {

// In-memory B+tree lookups with uniformly random keys. Upper levels are a
// small, implicitly hot region (traversal hubs); the leaf level dominates
// the footprint and is touched uniformly — the "uniform access pattern"
// class that challenges tiering (§5.3). Nodes are 256 bytes with fanout 16.
struct BtreeConfig {
  uint64_t footprint_bytes = 64 * kMiB;
};

class BtreeWorkload : public Workload {
 public:
  explicit BtreeWorkload(BtreeConfig config = BtreeConfig{});

  const char* name() const override { return "btree"; }
  void Setup(GuestProcess& process, Rng& rng) override;
  void NextBatch(int worker, size_t count, Rng& rng, std::vector<AccessOp>* ops) override;
  int OpsPerTransaction() const override { return levels_; }
  double CacheHitRate() const override { return 0.3; }

  int levels() const { return levels_; }

 private:
  // Powers of two, so a lookup's descent shifts instead of dividing.
  static constexpr int kFanoutBits = 4;     // 16 children per node.
  static constexpr int kNodeBytesBits = 8;  // 256-byte nodes.

  BtreeConfig config_;
  int levels_ = 0;
  std::vector<uint64_t> level_base_;  // Address of each level's node array.
  uint64_t leaf_count_ = 0;
};

// Silo-style OLTP engine under a YCSB-like workload: zipfian record
// popularity whose hotspot center drifts over time (dynamic shifting
// hotspot, strong temporal locality). One transaction touches a few index
// nodes and performs read-modify-write on a small set of records.
struct SiloConfig {
  uint64_t footprint_bytes = 64 * kMiB;
  uint64_t record_bytes = 1024;
  double zipf_theta = 0.9;
  int records_per_txn = 4;
  int index_reads_per_txn = 3;
  // The hotspot center advances by this fraction of the keyspace per
  // `drift_period_txns` transactions.
  uint64_t drift_period_txns = 20000;
  double drift_step_fraction = 0.05;
};

class SiloYcsb : public Workload {
 public:
  explicit SiloYcsb(SiloConfig config = SiloConfig{});

  const char* name() const override { return "silo"; }
  void Setup(GuestProcess& process, Rng& rng) override;
  void NextBatch(int worker, size_t count, Rng& rng, std::vector<AccessOp>* ops) override;
  int OpsPerTransaction() const override {
    return config_.index_reads_per_txn + 2 * config_.records_per_txn;
  }
  double CacheHitRate() const override { return 0.3; }

 private:
  SiloConfig config_;
  uint64_t records_base_ = 0;
  uint64_t index_base_ = 0;
  uint64_t index_bytes_ = 0;
  uint64_t num_records_ = 0;
  uint64_t txn_counter_ = 0;
  uint64_t drift_offset_ = 0;
};

}  // namespace demeter

#endif  // DEMETER_SRC_WORKLOADS_DB_WORKLOADS_H_
