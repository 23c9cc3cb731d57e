#include "src/pebs/pebs.h"

#include <utility>

#include "src/base/logging.h"

namespace demeter {

PebsUnit::PebsUnit(const PebsConfig& config) : config_(config), countdown_(config.sample_period) {
  DEMETER_CHECK_GT(config.sample_period, 0u);
  DEMETER_CHECK_GT(config.buffer_capacity, 0u);
}

double PebsUnit::OnSampledEvent(uint64_t gva, double latency_ns, Nanos now) {
  // Threshold filter: cache hits do not produce records.
  if (config_.event == PebsEvent::kLoadLatency && latency_ns < config_.latency_threshold_ns) {
    return 0.0;
  }

  // Injected sample loss: the record is lost before reaching the DS area.
  if (fault_ != nullptr && fault_->ShouldInject(FaultSite::kPebsSampleLoss, fault_vm_)) {
    ++stats_.records_dropped;
    return 0.0;
  }

  // The buffer is reserved by the first record after construction or a
  // drain, so a unit that never samples (TPP, TPP-H) holds none.
  if (buffer_.empty()) {
    buffer_.reserve(config_.buffer_capacity);
  }
  // is_store is always false here: stores never reach the sampled path.
  buffer_.push_back(PebsRecord{gva, latency_ns, /*is_store=*/false, now});
  ++stats_.records_written;

  if (buffer_.size() < config_.buffer_capacity) {
    return 0.0;
  }

  // Buffer overshoot: PMI fires.
  ++stats_.pmis;
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Instant("pebs", "pmi_drain", now, trace_pid_, trace_tid_,
                     TraceArgs().Add("records", static_cast<uint64_t>(buffer_.size())).str());
  }
  if (pmi_handler_) {
    std::vector<PebsRecord> drained;
    drained.swap(buffer_);
    pmi_handler_(std::move(drained), now);
  } else {
    stats_.records_dropped += buffer_.size();
    buffer_.clear();
  }
  return config_.pmi_cost_ns;
}

std::vector<PebsRecord> PebsUnit::Drain() {
  std::vector<PebsRecord> drained;
  if (!buffer_.empty()) {
    drained.swap(buffer_);
  }
  return drained;
}

}  // namespace demeter
