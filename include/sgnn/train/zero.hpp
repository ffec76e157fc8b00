#pragma once

#include <cstdint>
#include <vector>

#include "sgnn/comm/communicator.hpp"
#include "sgnn/train/bucketer.hpp"
#include "sgnn/train/optim.hpp"

namespace sgnn {

/// Data-parallel Adam, one instance per rank. Gradients are all-reduced
/// (averaged) so every replica applies the identical update; each rank
/// keeps a FULL copy of both Adam moments — the baseline whose optimizer-
/// state redundancy ZeRO removes.
class DDPAdam : public GradSync {
 public:
  /// `bucket_bytes` caps the gradient buckets whose in-place all-reduce is
  /// posted during backward (default: DDP's 25 MB); 0 makes one
  /// whole-model bucket. Every cap gives byte-identical training.
  DDPAdam(Communicator& comm, std::vector<Tensor> parameters,
          const Adam::Options& options,
          std::size_t bucket_bytes = GradBucketer::kDefaultBucketBytes);

 private:
  /// When backward ran armed (GradSync::backward), gradients already in
  /// flight are drained here; called unarmed, it posts and drains
  /// everything itself (unoverlapped — still bit-identical).
  double update(int rank, bool measure_norm) override;
};

/// ZeRO-1 Adam (Rajbhandari et al., SC'20), one instance per rank:
/// optimizer states are PARTITIONED — each rank stores moments only for its
/// 1/R shard, updates that shard after a reduce-scatter of gradients, and
/// the refreshed parameters are re-assembled with an all-gather.
/// Optimizer-state memory per rank drops by ~R at the price of extra
/// collectives, reproducing the Tab. II trade-off (27% peak memory, 133%
/// step time).
class ZeroAdam : public GradSync {
 public:
  /// `bucket_bytes` as in DDPAdam: bucketed reduce-scatter posted during
  /// backward, then a bucketed all-gather of the updated shard straight
  /// into the parameter values. Buckets scatter along the GLOBAL shard
  /// boundaries (explicit counts), so shard ownership — and checkpoint
  /// layout — never depends on the bucket size.
  ZeroAdam(Communicator& comm, std::vector<Tensor> parameters,
           const Adam::Options& options,
           std::size_t bucket_bytes = GradBucketer::kDefaultBucketBytes);

  std::size_t shard_elements() const {
    return static_cast<std::size_t>(m_.numel());
  }

 private:
  /// The global norm (clip or measure_norm) is assembled from per-shard
  /// partial sums via a scalar all-reduce, so every rank scales by the
  /// identical factor and replicas stay bit-identical. That costs one extra
  /// (tiny) collective in the steps that need the norm.
  double update(int rank, bool measure_norm) override;
  bool sharded() const override { return true; }
};

}  // namespace sgnn
