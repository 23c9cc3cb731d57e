// Simulated-time tracer: records spans and instant events (TLB full
// flushes, PEBS PMI drains, migration batches, balloon inflate/deflate,
// QoS rounds) against virtual-time timestamps, and exports them as Chrome
// trace_event JSON (chrome://tracing / Perfetto "JSON Object Format":
// {"traceEvents":[...]}).
//
// The tracer is an observer only: whether it is enabled MUST NOT influence
// simulation behaviour. Event pids are VM ids within one simulation (a
// cluster folds the host into them, see Cluster::TakeTrace); the Chrome
// exporter re-bases each simulation's events into its own pid block so one
// file can hold a whole sweep. Recording is bounded (max_events);
// overflow drops events and counts them rather than growing without bound.
//
// Not thread-safe: one Tracer per Machine, used single-threaded; the
// parallel runner gives every job its own and merges in spec order, which
// keeps trace files deterministic across --jobs values.

#ifndef DEMETER_SRC_TELEMETRY_TRACER_H_
#define DEMETER_SRC_TELEMETRY_TRACER_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/base/units.h"

namespace demeter {

struct TraceEvent {
  std::string name;
  const char* category = "";  // Static string: categories are compile-time.
  char phase = 'i';           // 'X' complete span, 'i' instant.
  Nanos ts = 0;
  double dur_ns = 0.0;  // 'X' only.
  int pid = 0;          // VM id within the owning simulation.
  int tid = 0;          // vCPU id, or 0 for VM-level events.
  // Pre-rendered JSON object body for "args" (no surrounding braces), e.g.
  // "\"pages\":42,\"node\":1". Empty = no args.
  std::string args;
};

// Builder for TraceEvent::args with the fixed formatting the JSON layer
// uses everywhere: TraceArgs().Add("pages", n).Add("node", 1).str().
class TraceArgs {
 public:
  TraceArgs& Add(const char* key, uint64_t value);
  std::string str() && { return std::move(out_); }
  const std::string& str() const& { return out_; }

 private:
  std::string out_;
};

class Tracer {
 public:
  static constexpr size_t kDefaultMaxEvents = 1 << 20;

  explicit Tracer(size_t max_events = kDefaultMaxEvents);

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Both record only when enabled; otherwise they are cheap no-ops, so call
  // sites need no guards beyond avoiding expensive argument construction.
  void Instant(const char* category, std::string name, Nanos ts, int pid, int tid,
               std::string args = {});
  void Span(const char* category, std::string name, Nanos ts, double dur_ns, int pid, int tid,
            std::string args = {});

  const std::vector<TraceEvent>& events() const { return events_; }
  std::vector<TraceEvent> TakeEvents();
  uint64_t dropped() const { return dropped_; }

 private:
  void Push(TraceEvent event);

  bool enabled_ = false;
  size_t max_events_;
  std::vector<TraceEvent> events_;
  uint64_t dropped_ = 0;
};

// One simulation's worth of events under a display name (e.g. the
// experiment spec name). Used to merge a sweep into one trace file.
struct NamedTrace {
  std::string name;
  const std::vector<TraceEvent>* events = nullptr;
};

// Pid block granularity in the merged file. Each NamedTrace gets a block of
// its max pid + 1 rounded up to a multiple of kTracePidStride (so at least
// one stride), and its pid p becomes the sum of the earlier blocks + p.
// While every trace stays under kTracePidStride pids, trace i's pid p is
// i * kTracePidStride + p.
inline constexpr int kTracePidStride = 100;

// Serializes to Chrome trace_event JSON with process_name metadata per
// (trace, pid) so the viewer labels each VM. Timestamps convert to the
// format's microseconds with fixed 3-decimal formatting (ns resolution).
std::string ChromeTraceJson(const std::vector<NamedTrace>& traces);

// Writes ChromeTraceJson to `path` (truncates); aborts, naming the path and
// errno, if it cannot open, write or close the file.
void WriteChromeTraceFile(const std::string& path, const std::vector<NamedTrace>& traces);

}  // namespace demeter

#endif  // DEMETER_SRC_TELEMETRY_TRACER_H_
