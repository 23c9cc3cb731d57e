#include "src/telemetry/tracer.h"

#include <cerrno>
#include <cstring>
#include <set>
#include <utility>

#include "src/base/logging.h"
#include "src/telemetry/json.h"

namespace demeter {
namespace {

// trace_event timestamps are microseconds; emit with ns resolution.
void AppendTraceTs(std::string& out, std::string_view key, double ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", ns / 1000.0);
  AppendJsonKey(out, key);
  out += buf;
}

void AppendEvent(std::string& out, const TraceEvent& event, int pid_base) {
  out += '{';
  AppendJsonStr(out, "name", event.name);
  out += ',';
  AppendJsonStr(out, "cat", event.category[0] != '\0' ? event.category : "sim");
  out += ",\"ph\":\"";
  out += event.phase;
  out += "\",";
  AppendTraceTs(out, "ts", static_cast<double>(event.ts));
  out += ',';
  if (event.phase == 'X') {
    AppendTraceTs(out, "dur", event.dur_ns);
    out += ',';
  }
  if (event.phase == 'i') {
    out += "\"s\":\"t\",";  // Instant scope: thread.
  }
  AppendJsonU64(out, "pid", static_cast<uint64_t>(pid_base + event.pid));
  out += ',';
  AppendJsonU64(out, "tid", static_cast<uint64_t>(event.tid));
  if (!event.args.empty()) {
    out += ",\"args\":{";
    out += event.args;
    out += '}';
  }
  out += '}';
}

void AppendProcessName(std::string& out, int pid, const std::string& name) {
  out += "{\"name\":\"process_name\",\"ph\":\"M\",";
  AppendJsonU64(out, "pid", static_cast<uint64_t>(pid));
  out += ",\"tid\":0,\"args\":{";
  AppendJsonStr(out, "name", name);
  out += "}}";
}

}  // namespace

TraceArgs& TraceArgs::Add(const char* key, uint64_t value) {
  if (!out_.empty()) {
    out_ += ',';
  }
  AppendJsonU64(out_, key, value);
  return *this;
}

TraceArgs& TraceArgs::Add(const char* key, double value) {
  if (!out_.empty()) {
    out_ += ',';
  }
  AppendJsonF64(out_, key, value);
  return *this;
}

TraceArgs& TraceArgs::Add(const char* key, const char* value) {
  if (!out_.empty()) {
    out_ += ',';
  }
  AppendJsonStr(out_, key, value);
  return *this;
}

Tracer::Tracer(size_t max_events) : max_events_(max_events) {}

void Tracer::Instant(const char* category, std::string name, Nanos ts, int pid, int tid,
                     std::string args) {
  if (!enabled_) {
    return;
  }
  TraceEvent event;
  event.name = std::move(name);
  event.category = category;
  event.phase = 'i';
  event.ts = ts;
  event.pid = pid;
  event.tid = tid;
  event.args = std::move(args);
  Push(std::move(event));
}

void Tracer::Span(const char* category, std::string name, Nanos ts, double dur_ns, int pid,
                  int tid, std::string args) {
  if (!enabled_) {
    return;
  }
  TraceEvent event;
  event.name = std::move(name);
  event.category = category;
  event.phase = 'X';
  event.ts = ts;
  event.dur_ns = dur_ns;
  event.pid = pid;
  event.tid = tid;
  event.args = std::move(args);
  Push(std::move(event));
}

void Tracer::Push(TraceEvent event) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> Tracer::TakeEvents() {
  std::vector<TraceEvent> out = std::move(events_);
  events_.clear();
  return out;
}

void Tracer::Clear() {
  events_.clear();
  dropped_ = 0;
}

std::string ChromeTraceJson(const std::vector<NamedTrace>& traces) {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  int pid_base = 0;
  for (const NamedTrace& trace : traces) {
    DEMETER_CHECK(trace.events != nullptr);

    // Name every pid seen in this trace "<trace name>/vm<pid>" (sorted for
    // deterministic output).
    std::set<int> pids;
    for (const TraceEvent& event : *trace.events) {
      pids.insert(event.pid);
    }
    for (int pid : pids) {
      if (!first) {
        out += ',';
      }
      first = false;
      AppendProcessName(out, pid_base + pid,
                        trace.name + "/vm" + std::to_string(pid));
    }
    for (const TraceEvent& event : *trace.events) {
      if (!first) {
        out += ',';
      }
      first = false;
      AppendEvent(out, event, pid_base);
    }
    const int max_pid = pids.empty() ? 0 : *pids.rbegin();
    pid_base += (max_pid / kTracePidStride + 1) * kTracePidStride;
  }
  out += "]}";
  return out;
}

void WriteChromeTraceFile(const std::string& path, const std::vector<NamedTrace>& traces) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  DEMETER_CHECK(out != nullptr) << "cannot open " << path << " for writing";
  const std::string json = ChromeTraceJson(traces);
  // fclose flushes, so a full disk can surface at either call.
  const bool written = std::fwrite(json.data(), 1, json.size(), out) == json.size();
  const bool closed = std::fclose(out) == 0;
  DEMETER_CHECK(written && closed) << "cannot write " << path << ": " << std::strerror(errno);
}

}  // namespace demeter
