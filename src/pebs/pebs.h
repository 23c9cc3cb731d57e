// Processor Event-Based Sampling (PEBS) model.
//
// Each vCPU owns a PebsUnit. The unit counts sampled events (loads for the
// MEM_TRANS_RETIRED.LOAD_LATENCY event) and, every `sample_period` events,
// writes a record carrying the *guest virtual address* into a buffer that is
// private to the virtual machine (hardware switches buffers through
// vmcs.debugctl, so samples never cross the virtualization boundary —
// §2.3.2 "PEBS Isolation").
//
// The load-latency event filters through MSR_PEBS_LD_LAT_THRESHOLD: only
// accesses whose latency meets the threshold produce records, which is how
// Demeter excludes cache hits (the paper sets 64 ns between the 53.6 ns L2
// hit and the 68.7 ns DRAM read).
//
// When the buffer fills before software drains it, a Performance Monitoring
// Interrupt fires; PMI servicing is expensive, and designs that push the
// sample frequency high (HeMem-style adaptive collection) pay for it
// (§3.2.2). EPT-friendliness models the pre-PEBS-v5 architectural bug: with
// an EPT-unfriendly PMU, guest PEBS requires eagerly-backed guest memory.

#ifndef DEMETER_SRC_PEBS_PEBS_H_
#define DEMETER_SRC_PEBS_PEBS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/units.h"
#include "src/fault/fault.h"
#include "src/telemetry/tracer.h"

namespace demeter {

enum class PebsEvent {
  kLoadLatency,  // MEM_TRANS_RETIRED.LOAD_LATENCY — media-agnostic, loads only.
  kL3Miss,       // MEM_LOAD_L3_MISS_RETIRED — DRAM/PMEM only; needs one event per tier.
};

struct PebsConfig {
  PebsEvent event = PebsEvent::kLoadLatency;
  uint64_t sample_period = 4093;       // Events between records (paper default).
  double latency_threshold_ns = 64.0;  // MSR_PEBS_LD_LAT_THRESHOLD.
  size_t buffer_capacity = 512;        // Records before PMI.
  double pmi_cost_ns = 4000.0;         // PMI + handler entry/exit.
  bool ept_friendly = true;            // PEBS v5 (Sapphire Rapids+).
};

struct PebsRecord {
  uint64_t gva = 0;
  double latency_ns = 0.0;
  bool is_store = false;
  Nanos timestamp = 0;
};

class PebsUnit {
 public:
  struct Stats {
    uint64_t events_counted = 0;
    uint64_t records_written = 0;
    uint64_t records_dropped = 0;  // Buffer full, no PMI handler installed.
    uint64_t pmis = 0;
  };

  // The PMI handler receives the full buffer contents (drained).
  using PmiHandler = std::function<void(std::vector<PebsRecord>&& records, Nanos now)>;

  explicit PebsUnit(const PebsConfig& config);

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  void set_pmi_handler(PmiHandler handler) { pmi_handler_ = std::move(handler); }

  // Attaches an optional tracer; PMI drains emit instant events stamped with
  // the owning VM (`pid`) and vCPU (`tid`). Null disables tracing.
  void BindTrace(Tracer* tracer, int pid, int tid) {
    tracer_ = tracer;
    trace_pid_ = pid;
    trace_tid_ = tid;
  }

  // Attaches the shared fault injector (null = fault-free). When armed,
  // threshold-passing records can be lost before reaching the buffer
  // (counted as records_dropped), modelling DS-area overflow races.
  void BindFault(FaultInjector* fault, int vm_id) {
    fault_ = fault;
    fault_vm_ = vm_id;
  }

  // Observes one memory access by the owning vCPU while in guest mode.
  // Returns the PMI cost in ns when this access triggered a PMI, else 0.
  // The counting fast path (all but one access in sample_period) is inline;
  // only the every-4093rd sampled event takes the out-of-line slow path.
  double OnAccess(uint64_t gva, double latency_ns, bool is_store, Nanos now) {
    if (!enabled_) {
      return 0.0;
    }
    // The load-latency and L3-miss events count loads only.
    if (is_store) {
      return 0.0;
    }
    ++stats_.events_counted;
    if (--countdown_ != 0) {
      return 0.0;
    }
    countdown_ = config_.sample_period;
    return OnSampledEvent(gva, latency_ns, now);
  }

  // Proactive drain (polling designs, or Demeter's context-switch drain).
  std::vector<PebsRecord> Drain();

  size_t buffered() const { return buffer_.size(); }
  // Records the buffer has room for without growing: 0 until the unit's
  // first record (units that never sample hold no buffer), then
  // config().buffer_capacity until a drain or PMI hands the records out
  // with their buffer.
  size_t reserved() const { return buffer_.capacity(); }

  // Frees the sample buffer of a unit whose VM has left its host; records
  // still buffered are discarded uncounted. The counters keep their values.
  void ReleaseStorage() { std::vector<PebsRecord>().swap(buffer_); }
  const PebsConfig& config() const { return config_; }
  const Stats& stats() const { return stats_; }

  // Whether guest PEBS can be safely enabled given the VM's backing policy
  // (lazily-populated EPT requires an EPT-friendly PMU; see §2.3.2).
  bool UsableInGuest(bool lazily_backed) const {
    return config_.ept_friendly || !lazily_backed;
  }

 private:
  // Slow path of OnAccess, entered once per sample_period loads: threshold
  // filter, injected sample loss, record write, and the PMI when the buffer
  // fills. Returns the PMI cost (0 when no PMI fired).
  double OnSampledEvent(uint64_t gva, double latency_ns, Nanos now);

  PebsConfig config_;
  bool enabled_ = false;
  uint64_t countdown_;
  std::vector<PebsRecord> buffer_;
  PmiHandler pmi_handler_;
  Stats stats_;
  Tracer* tracer_ = nullptr;
  int trace_pid_ = 0;
  int trace_tid_ = 0;
  FaultInjector* fault_ = nullptr;
  int fault_vm_ = 0;
};

}  // namespace demeter

#endif  // DEMETER_SRC_PEBS_PEBS_H_
