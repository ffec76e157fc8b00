#include "sgnn/obs/telemetry.hpp"

#include "sgnn/obs/metrics.hpp"
#include "sgnn/util/error.hpp"
#include "sgnn/util/parse.hpp"

namespace sgnn::obs {

namespace {

using util::format_double;

/// Extracts the numeric value of `"key":<number>` from a flat JSON line.
/// Locale-independent: the telemetry format always uses '.' decimals.
double numeric_field(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto at = line.find(needle);
  SGNN_CHECK(at != std::string::npos,
             "telemetry line is missing field '" << key << "': " << line);
  const char* start = line.c_str() + at + needle.size();
  const char* last = line.c_str() + line.size();
  double value = 0;
  SGNN_CHECK(util::parse_double(start, last, value),
             "telemetry field '" << key << "' is not numeric");
  return value;
}

/// Extracts the value of `"key":"<string>"` from a flat JSON line; returns
/// an empty string when the field is absent (older logs predate it). The
/// emitted strings are plain identifiers, so no unescaping is needed.
std::string string_field(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const auto at = line.find(needle);
  if (at == std::string::npos) return {};
  const auto start = at + needle.size();
  const auto end = line.find('"', start);
  SGNN_CHECK(end != std::string::npos,
             "telemetry field '" << key << "' has an unterminated string");
  return line.substr(start, end - start);
}

/// Like numeric_field but returns 0 when the field is absent — for fields
/// added after logs already existed (the halo_* graph-parallel group).
double optional_numeric_field(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  if (line.find(needle) == std::string::npos) return 0;
  return numeric_field(line, key);
}

}  // namespace

std::string StepTelemetry::to_json() const {
  std::string out = "{";
  out += "\"step\":" + std::to_string(step);
  out += ",\"epoch\":" + std::to_string(epoch);
  out += ",\"rank\":" + std::to_string(rank);
  out += ",\"loss\":" + format_double(loss);
  out += ",\"grad_norm\":" + format_double(grad_norm);
  out += ",\"learning_rate\":" + format_double(learning_rate);
  out += ",\"batch_graphs\":" + std::to_string(batch_graphs);
  out += ",\"batch_atoms\":" + std::to_string(batch_atoms);
  out += ",\"batch_edges\":" + std::to_string(batch_edges);
  out += ",\"step_seconds\":" + format_double(step_seconds);
  out += ",\"atoms_per_sec\":" + format_double(atoms_per_sec);
  out += ",\"graphs_per_sec\":" + format_double(graphs_per_sec);
  out += ",\"collective_bytes\":" + std::to_string(collective_bytes);
  out += ",\"comm_seconds_modeled\":" + format_double(comm_seconds_modeled);
  out += ",\"comm_exposed_seconds\":" + format_double(comm_exposed_seconds);
  out += ",\"comm_overlapped_seconds\":" +
         format_double(comm_overlapped_seconds);
  out += ",\"comm_buckets\":" + std::to_string(comm_buckets);
  out += ",\"halo_bytes\":" + std::to_string(halo_bytes);
  out += ",\"halo_exchanges\":" + std::to_string(halo_exchanges);
  out += ",\"halo_exposed_seconds\":" + format_double(halo_exposed_seconds);
  out += ",\"halo_overlapped_seconds\":" +
         format_double(halo_overlapped_seconds);
  out += ",\"live_bytes\":" + std::to_string(live_bytes);
  out += ",\"peak_bytes\":" + std::to_string(peak_bytes);
  out += ",\"kernel_seconds\":" + format_double(kernel_seconds);
  out += ",\"kernel_flops\":" + std::to_string(kernel_flops);
  out += ",\"kernel_bytes\":" + std::to_string(kernel_bytes);
  out += ",\"kernel_backend\":\"" + kernel_backend + "\"";
  out += ",\"compute_dtype\":\"" + compute_dtype + "\"";
  out += "}";
  return out;
}

StepTelemetry StepTelemetry::from_json(const std::string& line) {
  StepTelemetry t;
  t.step = static_cast<std::int64_t>(numeric_field(line, "step"));
  t.epoch = static_cast<std::int64_t>(numeric_field(line, "epoch"));
  t.rank = static_cast<int>(numeric_field(line, "rank"));
  t.loss = numeric_field(line, "loss");
  t.grad_norm = numeric_field(line, "grad_norm");
  t.learning_rate = numeric_field(line, "learning_rate");
  t.batch_graphs =
      static_cast<std::int64_t>(numeric_field(line, "batch_graphs"));
  t.batch_atoms =
      static_cast<std::int64_t>(numeric_field(line, "batch_atoms"));
  t.batch_edges =
      static_cast<std::int64_t>(numeric_field(line, "batch_edges"));
  t.step_seconds = numeric_field(line, "step_seconds");
  t.atoms_per_sec = numeric_field(line, "atoms_per_sec");
  t.graphs_per_sec = numeric_field(line, "graphs_per_sec");
  t.collective_bytes =
      static_cast<std::uint64_t>(numeric_field(line, "collective_bytes"));
  t.comm_seconds_modeled = numeric_field(line, "comm_seconds_modeled");
  t.comm_exposed_seconds = numeric_field(line, "comm_exposed_seconds");
  t.comm_overlapped_seconds = numeric_field(line, "comm_overlapped_seconds");
  t.comm_buckets = static_cast<std::int64_t>(numeric_field(line, "comm_buckets"));
  // Lenient: logs written before graph parallelism carry no halo fields;
  // they read back as zero (same convention as the backend strings below).
  t.halo_bytes =
      static_cast<std::uint64_t>(optional_numeric_field(line, "halo_bytes"));
  t.halo_exchanges = static_cast<std::int64_t>(
      optional_numeric_field(line, "halo_exchanges"));
  t.halo_exposed_seconds = optional_numeric_field(line, "halo_exposed_seconds");
  t.halo_overlapped_seconds =
      optional_numeric_field(line, "halo_overlapped_seconds");
  t.live_bytes = static_cast<std::int64_t>(numeric_field(line, "live_bytes"));
  t.peak_bytes = static_cast<std::int64_t>(numeric_field(line, "peak_bytes"));
  t.kernel_seconds = numeric_field(line, "kernel_seconds");
  t.kernel_flops =
      static_cast<std::int64_t>(numeric_field(line, "kernel_flops"));
  t.kernel_bytes =
      static_cast<std::int64_t>(numeric_field(line, "kernel_bytes"));
  // Lenient: logs written before the kernel backend layer existed do not
  // carry these fields; they read back as "".
  t.kernel_backend = string_field(line, "kernel_backend");
  t.compute_dtype = string_field(line, "compute_dtype");
  return t;
}

std::vector<StepTelemetry> read_jsonl(std::istream& in) {
  std::vector<StepTelemetry> steps;
  std::string line;
  std::int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      steps.push_back(StepTelemetry::from_json(line));
    } catch (const Error& e) {
      // Re-throw with the position attached — a sweep reading thousands of
      // lines needs to know *which* record is corrupt.
      SGNN_CHECK(false, "telemetry JSONL parse error at line " << line_no
                                                               << ": "
                                                               << e.what());
    }
  }
  return steps;
}

std::vector<StepTelemetry> read_jsonl(const std::string& path) {
  std::ifstream in(path);
  SGNN_CHECK(in.good(), "cannot open telemetry file " << path);
  try {
    return read_jsonl(in);
  } catch (const Error& e) {
    SGNN_CHECK(false, "in " << path << ": " << e.what());
  }
}

JsonlTelemetrySink::JsonlTelemetrySink(const std::string& path)
    : file_(path, std::ios::trunc), out_(&file_) {
  SGNN_CHECK(file_.good(), "cannot open telemetry output file " << path);
}

JsonlTelemetrySink::JsonlTelemetrySink(std::ostream& out) : out_(&out) {}

void JsonlTelemetrySink::on_step(const StepTelemetry& step) {
  const std::string line = step.to_json();
  const std::lock_guard<std::mutex> lock(mutex_);
  *out_ << line << '\n';
  ++lines_;
}

std::int64_t JsonlTelemetrySink::lines_written() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lines_;
}

void RecordingTelemetrySink::on_step(const StepTelemetry& step) {
  const std::lock_guard<std::mutex> lock(mutex_);
  steps_.push_back(step);
}

std::vector<StepTelemetry> RecordingTelemetrySink::steps() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return steps_;
}

void record_step_metrics(const StepTelemetry& step) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.counter("train.steps").add(1);
  registry.counter("train.atoms").add(step.batch_atoms);
  registry.counter("train.graphs").add(step.batch_graphs);
  registry.counter("train.edges").add(step.batch_edges);
  registry.gauge("train.loss").set(step.loss);
  registry.gauge("train.lr").set(step.learning_rate);
  registry.gauge("train.grad_norm").set(step.grad_norm);
  registry.gauge("train.atoms_per_sec").set(step.atoms_per_sec);
  registry.gauge("train.graphs_per_sec").set(step.graphs_per_sec);
  registry.gauge("mem.live_bytes").set(static_cast<double>(step.live_bytes));
  registry.gauge("mem.peak_bytes").set(static_cast<double>(step.peak_bytes));
  registry.histogram("step.seconds").observe(step.step_seconds);
  // Overlap accounting is filled by rank 0 only (zeros elsewhere), so the
  // accumulated gauges track the run-wide exposed/overlapped split.
  registry.gauge("comm.exposed_seconds").add(step.comm_exposed_seconds);
  registry.gauge("comm.overlapped_seconds").add(step.comm_overlapped_seconds);
  registry.counter("comm.buckets").add(step.comm_buckets);
  // Halo fabric-time split (graph-parallel runs; zero elsewhere). The raw
  // halo.bytes / halo.exchanges counters are bumped by the HaloExchanger
  // itself as each collective posts, so they are NOT re-counted here.
  registry.gauge("halo.exposed_seconds").add(step.halo_exposed_seconds);
  registry.gauge("halo.overlapped_seconds").add(step.halo_overlapped_seconds);
  // Kernel profile deltas (zero when the profiler is disabled).
  registry.gauge("kernel.seconds").add(step.kernel_seconds);
  registry.counter("kernel.flops").add(step.kernel_flops);
  registry.counter("kernel.bytes").add(step.kernel_bytes);
}

}  // namespace sgnn::obs
