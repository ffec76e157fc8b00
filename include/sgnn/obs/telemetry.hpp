#pragma once

#include <cstdint>
#include <fstream>
#include <istream>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace sgnn::obs {

/// Everything the trainers know about one optimization step, in plain
/// numbers — the per-step record behind the paper's throughput / memory /
/// communication accounting. Serialized as one JSON object per line (JSONL)
/// so benches and the scaling sweep can consume a run without linking
/// against the trainer.
struct StepTelemetry {
  std::int64_t step = 0;   ///< global step index (within the run)
  std::int64_t epoch = 0;  ///< epoch the step belongs to
  int rank = -1;           ///< emitting rank; -1 for single-process training

  double loss = 0;           ///< total multitask loss of the batch
  /// Joint L2 norm of the gradient the update consumed, before clipping:
  /// the rank-averaged gradient under DDP/ZeRO, so every rank reports the
  /// same value. 0 when neither clipping nor a telemetry sink asked for it.
  double grad_norm = 0;
  double learning_rate = 0;  ///< LR applied by this step

  std::int64_t batch_graphs = 0;
  std::int64_t batch_atoms = 0;
  std::int64_t batch_edges = 0;

  double step_seconds = 0;
  double atoms_per_sec = 0;
  double graphs_per_sec = 0;

  /// Collective payload moved during this step (bytes; exact, from
  /// Communicator::Traffic) and the fabric time the InterconnectModel
  /// attributes to it. Zero for single-process training.
  std::uint64_t collective_bytes = 0;
  double comm_seconds_modeled = 0;
  /// Split of comm_seconds_modeled into the stall the rank would actually
  /// feel and the part hidden behind backward/optimizer compute (priced
  /// from the GradBucketer's post/wait stamps; exposed + overlapped ==
  /// comm_seconds_modeled).
  double comm_exposed_seconds = 0;
  double comm_overlapped_seconds = 0;
  /// Non-blocking bucket collectives posted during this step.
  std::int64_t comm_buckets = 0;

  /// Graph-parallel halo traffic for this step: payload bytes moved by the
  /// halo exchanges, how many logical halo collectives ran, and the modeled
  /// fabric-time split into the stall the rank feels vs. the part hidden
  /// behind the distance/RBF compute window (exposed + overlapped == the
  /// halo share of comm_seconds_modeled). All zero outside graph-parallel
  /// runs; filled by rank 0 only, like the comm_* fields above.
  std::uint64_t halo_bytes = 0;
  std::int64_t halo_exchanges = 0;
  double halo_exposed_seconds = 0;
  double halo_overlapped_seconds = 0;

  /// Live and peak tracked allocation totals (MemoryTracker), bytes.
  std::int64_t live_bytes = 0;
  std::int64_t peak_bytes = 0;

  /// Per-step kernel profile snapshot (deltas of obs::prof::totals() across
  /// the step): time spent inside instrumented tensor kernels and the
  /// FLOPs / bytes those kernels attributed. Zero when the profiler is off.
  double kernel_seconds = 0;
  std::int64_t kernel_flops = 0;
  std::int64_t kernel_bytes = 0;

  /// Kernel backend ("scalar"/"simd") and compute dtype ("float64"/
  /// "float32") active while this step ran. Telemetry from different
  /// backends is not performance-comparable; these fields let sweep
  /// tooling tell lines apart. Empty when parsed from pre-backend logs.
  std::string kernel_backend;
  std::string compute_dtype;

  std::string to_json() const;
  /// Parses one to_json() line back; throws sgnn::Error on malformed input.
  static StepTelemetry from_json(const std::string& line);
};

/// Receiver of per-step telemetry. Implementations must tolerate concurrent
/// on_step() calls: the distributed trainer emits from every rank thread.
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  virtual void on_step(const StepTelemetry& step) = 0;
};

/// Appends one JSON line per step to a file or stream.
class JsonlTelemetrySink final : public TelemetrySink {
 public:
  explicit JsonlTelemetrySink(const std::string& path);
  explicit JsonlTelemetrySink(std::ostream& out);

  void on_step(const StepTelemetry& step) override;
  std::int64_t lines_written() const;

 private:
  mutable std::mutex mutex_;
  std::ofstream file_;
  std::ostream* out_;
  std::int64_t lines_ = 0;
};

/// Buffers steps in memory — for tests and in-process consumers (sweeps).
class RecordingTelemetrySink final : public TelemetrySink {
 public:
  void on_step(const StepTelemetry& step) override;
  std::vector<StepTelemetry> steps() const;

 private:
  mutable std::mutex mutex_;
  std::vector<StepTelemetry> steps_;
};

/// Parses a whole JSONL telemetry stream (one to_json() object per line,
/// blank lines ignored). A malformed line throws sgnn::Error naming the
/// 1-based line number and the offending field instead of decaying to zeros.
std::vector<StepTelemetry> read_jsonl(std::istream& in);
/// File-opening overload; the error also names the path.
std::vector<StepTelemetry> read_jsonl(const std::string& path);

/// Mirrors one step into the global MetricsRegistry: counters train.steps /
/// train.atoms / train.graphs, gauges train.loss / train.lr /
/// train.grad_norm / train.atoms_per_sec / train.graphs_per_sec /
/// mem.live_bytes / mem.peak_bytes, histogram step.seconds. The trainers
/// call this on every step regardless of whether a sink is attached.
void record_step_metrics(const StepTelemetry& step);

}  // namespace sgnn::obs
