#include "src/runner/result_sink.h"

#include <cerrno>
#include <cstring>

#include "src/base/logging.h"
#include "src/telemetry/json.h"

namespace demeter {
namespace {

void CheckWritten(bool ok, const std::string& path) {
  DEMETER_CHECK(ok) << "cannot write " << path << ": " << std::strerror(errno);
}

}  // namespace

std::string JsonLinesSink::ToJsonLines(const ExperimentResult& result) {
  std::string out;
  if (!result.ok) {
    out += '{';
    AppendJsonStr(out, "experiment", result.spec.name);
    out += ',';
    AppendJsonStr(out, "tag", result.spec.tag);
    out += ',';
    AppendJsonU64(out, "seed", DeriveSeed(result.spec));
    out += ",\"ok\":false,";
    AppendJsonStr(out, "error", result.error);
    out += "}\n";
    return out;
  }
  for (size_t v = 0; v < result.vms.size(); ++v) {
    const VmRunResult& vm = result.vms[v];
    out += '{';
    AppendJsonStr(out, "experiment", result.spec.name);
    out += ',';
    AppendJsonStr(out, "tag", result.spec.tag);
    out += ',';
    AppendJsonU64(out, "seed", DeriveSeed(result.spec));
    out += ",\"ok\":true,";
    AppendJsonU64(out, "vm", v);
    out += ',';
    AppendJsonStr(out, "workload", vm.workload);
    out += ',';
    AppendJsonStr(out, "policy", vm.policy);
    out += ',';
    AppendJsonU64(out, "transactions", vm.transactions);
    out += ',';
    AppendJsonF64(out, "elapsed_s", vm.elapsed_s);
    out += ',';
    AppendJsonF64(out, "throughput_tps", vm.ThroughputTps());
    out += ',';
    AppendJsonF64(out, "mgmt_cores", vm.MgmtCores());
    out += ',';
    AppendJsonF64(out, "fmem_access_fraction", vm.fmem_access_fraction);
    out += ",\"tlb\":{";
    AppendJsonU64(out, "hits", vm.tlb.hits);
    out += ',';
    AppendJsonU64(out, "misses", vm.tlb.misses);
    out += ',';
    AppendJsonU64(out, "single_flushes", vm.tlb.single_flushes);
    out += ',';
    AppendJsonU64(out, "full_flushes", vm.tlb.full_flushes);
    out += "},\"stats\":{";
    AppendJsonU64(out, "accesses", vm.vm_stats.accesses);
    out += ',';
    AppendJsonU64(out, "writes", vm.vm_stats.writes);
    out += ',';
    AppendJsonU64(out, "guest_faults", vm.vm_stats.guest_faults);
    out += ',';
    AppendJsonU64(out, "ept_faults", vm.vm_stats.ept_faults);
    out += ',';
    AppendJsonU64(out, "fmem_accesses", vm.vm_stats.fmem_accesses);
    out += ',';
    AppendJsonU64(out, "smem_accesses", vm.vm_stats.smem_accesses);
    out += ',';
    AppendJsonU64(out, "pages_promoted", vm.vm_stats.pages_promoted);
    out += ',';
    AppendJsonU64(out, "pages_demoted", vm.vm_stats.pages_demoted);
    out += "},\"txn_latency_ns\":{";
    AppendJsonF64(out, "mean", vm.txn_latency_ns.Mean());
    out += ',';
    AppendJsonU64(out, "p50", vm.txn_latency_ns.Percentile(50));
    out += ',';
    AppendJsonU64(out, "p90", vm.txn_latency_ns.Percentile(90));
    out += ',';
    AppendJsonU64(out, "p99", vm.txn_latency_ns.Percentile(99));
    out += ',';
    AppendJsonU64(out, "p999", vm.txn_latency_ns.Percentile(99.9));
    out += ',';
    AppendJsonU64(out, "max", vm.txn_latency_ns.max());
    out += "},\"metrics\":";
    vm.metrics.AppendJson(out);
    if (v == 0 && !result.host_metrics.empty()) {
      // Host-side counters are machine-wide; emit them once per experiment.
      out += ",\"host_metrics\":";
      result.host_metrics.AppendJson(out);
    }
    out += "}\n";
  }
  return out;
}

JsonLinesSink::JsonLinesSink(const std::string& path)
    : out_(std::fopen(path.c_str(), "w")), path_(path) {
  DEMETER_CHECK(out_ != nullptr) << "cannot open " << path << " for writing";
}

JsonLinesSink::~JsonLinesSink() {
  if (out_ != nullptr) {
    std::fclose(out_);
  }
}

void JsonLinesSink::Consume(const ExperimentResult& result) {
  const std::string lines = ToJsonLines(result);
  CheckWritten(std::fwrite(lines.data(), 1, lines.size(), out_) == lines.size(), path_);
}

void JsonLinesSink::Finish() {
  CheckWritten(std::fflush(out_) == 0, path_);
  const bool closed = std::fclose(out_) == 0;
  out_ = nullptr;
  CheckWritten(closed, path_);
}

TableSink::TableSink()
    : table_({"experiment", "workload", "policy", "vms", "elapsed-s", "txn/s", "mgmt-cores",
              "fmem%"}) {}

void TableSink::Consume(const ExperimentResult& result) {
  if (!result.ok || result.vms.empty()) {
    table_.AddRow({result.spec.name, "-", "-", "-", result.ok ? "-" : "FAILED", "-", "-", "-"});
    return;
  }
  double tps = 0.0;
  double fmem = 0.0;
  for (const VmRunResult& vm : result.vms) {
    tps += vm.ThroughputTps();
    fmem += vm.fmem_access_fraction;
  }
  const double n = result.vms.empty() ? 1.0 : static_cast<double>(result.vms.size());
  const VmRunResult& first = result.vms.front();
  table_.AddRow({result.spec.name, first.workload, first.policy,
                 TablePrinter::Fmt(static_cast<uint64_t>(result.vms.size())),
                 TablePrinter::Fmt(result.MeanElapsedSeconds(), 3), TablePrinter::Fmt(tps, 0),
                 TablePrinter::Fmt(result.TotalMgmtCores(), 3),
                 TablePrinter::Fmt(fmem / n * 100.0, 1)});
}

void TableSink::Finish() { table_.Print(); }

void EmitResults(const std::vector<ExperimentResult>& results,
                 const std::vector<ResultSink*>& sinks) {
  for (ResultSink* sink : sinks) {
    for (const ExperimentResult& result : results) {
      sink->Consume(result);
    }
    sink->Finish();
  }
}

}  // namespace demeter
