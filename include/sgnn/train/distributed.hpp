#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sgnn/ckpt/checkpoint.hpp"
#include "sgnn/comm/communicator.hpp"
#include "sgnn/nn/egnn.hpp"
#include "sgnn/store/ddstore.hpp"
#include "sgnn/train/bucketer.hpp"
#include "sgnn/train/loss.hpp"
#include "sgnn/train/optim.hpp"

namespace sgnn {

namespace obs {
class TelemetrySink;
}  // namespace obs

/// How gradients are synchronized and optimizer state is placed.
enum class DistStrategy {
  kDDP,    ///< all-reduce gradients, replicated Adam state
  kZeRO1,  ///< reduce-scatter + sharded Adam + all-gather (DeepSpeed ZeRO-1)
};

/// Options for a simulated multi-GPU training run.
struct DistTrainOptions {
  int num_ranks = 4;  ///< the paper's four A100s per node
  DistStrategy strategy = DistStrategy::kDDP;
  bool activation_checkpointing = false;
  /// Graph parallelism (sgnn::gpar): the ranks COOPERATE on one shared
  /// global batch per step — each owns a contiguous spatial slab of it
  /// (GraphPartition) and exchanges one-hop halo rows through a
  /// HaloExchanger before each EGNN layer, overlapped with the distance/RBF
  /// compute. Gradients replicate exactly, so the run is BIT-IDENTICAL to
  /// the single-rank unpartitioned one (the partition-parity tests enforce
  /// this). per_rank_batch_size is then the GLOBAL batch size, optimizer
  /// state is plain per-rank Adam (docs/graph-parallelism.md says why DDP
  /// averaging would break bit-identity), and the run requires kDDP and
  /// float64 compute. Clipping is allowed: each rank's communicator-free
  /// Adam forms the clip norm from the replicated gradients in the
  /// single-process order.
  bool graph_parallel = false;
  std::int64_t epochs = 2;
  std::int64_t per_rank_batch_size = 4;
  /// Every rank trains at adam.learning_rate throughout the run.
  Adam::Options adam;
  LossWeights loss_weights;
  std::uint64_t sampler_seed = 17;
  /// Joint L2 clip applied to the rank-AVERAGED gradient (under
  /// graph_parallel, to the replicated one); 0 disables.
  /// Clipping after averaging keeps replicas bit-identical (per-replica
  /// clipping before the all-reduce would break the sync invariant).
  double max_grad_norm = 0.0;
  /// Gradient-bucket cap of the overlapped communication path, whose
  /// buckets post during backward. Default is DDP's 25 MB; 0 makes one
  /// whole-model bucket, posted once backward has finished. Every setting
  /// trains byte-identically — see docs/communication.md.
  std::size_t bucket_bytes = GradBucketer::kDefaultBucketBytes;
  /// Crash-safe training-state snapshots, written by rank 0 between two
  /// barriers (see docs/fault-tolerance.md).
  ckpt::CheckpointOptions checkpoint;
  /// Per-step telemetry receiver (not owned); every rank thread emits one
  /// StepTelemetry per step, so the sink must be thread-safe. All steps also
  /// feed the global obs::MetricsRegistry regardless of this field.
  obs::TelemetrySink* telemetry = nullptr;
};

/// Outcome of a distributed run: learning progress plus the cost accounting
/// that Tab. II and Fig. 6 are built from.
struct DistTrainReport {
  /// Mean step loss over the whole run (averaged over ranks); a resumed
  /// run reports the uninterrupted run's value, the steps before the
  /// snapshot included.
  double final_train_loss = 0;
  /// Wall-clock of the compute portion (max across ranks, measured).
  double compute_seconds = 0;
  /// Interconnect time implied by the collective traffic (modeled).
  double comm_seconds = 0;
  /// Split of comm_seconds into the part hidden behind backward/optimizer
  /// compute and the part a rank would stall on (rank 0's accounting,
  /// summed over steps; exposed + overlapped == comm_seconds).
  double comm_exposed_seconds = 0;
  double comm_overlapped_seconds = 0;
  /// Non-blocking bucket collectives posted across the run.
  std::int64_t comm_buckets = 0;
  /// Graph-parallel halo accounting (zero outside graph_parallel runs):
  /// payload bytes the halo exchanges moved, how many logical halo
  /// collectives ran, and the split of their modeled fabric time into the
  /// part a rank stalls on vs. the part hidden behind the distance/RBF
  /// compute window (rank 0's accounting, summed over steps).
  std::uint64_t halo_bytes = 0;
  std::int64_t halo_exchanges = 0;
  double halo_exposed_seconds = 0;
  double halo_overlapped_seconds = 0;
  /// DDStore data-loading traffic implied time is negligible and reported
  /// as raw bytes instead.
  Communicator::Traffic collective_traffic;
  DDStore::TrafficStats data_traffic;
  /// Global peak memory during the run and its phase attribution.
  MemBreakdown peak_memory;
  TrainPhase peak_phase = TrainPhase::kIdle;
  /// Highest total usage while each phase was active (Fig. 6(a)'s
  /// three-stage profile). With more than one rank these depend on how
  /// the rank threads interleave: a sample is charged to the sampling
  /// thread's phase but counts every rank's live bytes, so one rank's
  /// optimizer-phase peak can include another rank's activations.
  std::int64_t peak_forward = 0;
  std::int64_t peak_backward = 0;
  std::int64_t peak_optimizer = 0;
  /// Steps this call ran on each rank; after a resume, only the remaining
  /// ones (like compute_seconds).
  std::int64_t steps = 0;

  /// All-exposed accounting: every modeled comm second serializes after
  /// compute (the pre-overlap upper bound).
  double total_seconds() const { return compute_seconds + comm_seconds; }
  /// Overlap-honest accounting: only the exposed comm stalls the step.
  double overlapped_total_seconds() const {
    return compute_seconds + comm_exposed_seconds;
  }
};

/// Simulated data-parallel training across `num_ranks` replicas, one thread
/// per rank running the same training loop as Trainer, samples served from
/// a DDStore shard layout. Replicas are verified to be bit-identical after
/// training (the invariant DDP and ZeRO both guarantee).
class DistributedTrainer {
 public:
  DistributedTrainer(const ModelConfig& config,
                     const DistTrainOptions& options);

  /// Trains on the graphs in `store`; returns the cost/learning report.
  /// When options.checkpoint.resume_from names a readable snapshot,
  /// training resumes from it bit-identically (same parameters as an
  /// uninterrupted run). A configured crash_after_step makes every rank
  /// throw ckpt::SimulatedCrash once that step completes.
  DistTrainReport train(const DDStore& store);

  /// Read-only access to replica 0 (e.g. for evaluation after training).
  const EGNNModel& model() const { return *replicas_.front(); }

  /// Max absolute parameter difference across replicas (0 when in sync).
  double replica_divergence() const;

 private:
  DistTrainOptions options_;
  std::vector<std::unique_ptr<EGNNModel>> replicas_;
  InterconnectModel interconnect_;
};

}  // namespace sgnn
