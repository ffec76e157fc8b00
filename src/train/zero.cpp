#include "sgnn/train/zero.hpp"

#include "sgnn/obs/trace.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn {

DDPAdam::DDPAdam(Communicator& comm, std::vector<Tensor> parameters,
                 const Adam::Options& options, std::size_t bucket_bytes)
    : GradSync(std::move(parameters), options, &comm,
               CollectiveKind::kAllReduce, bucket_bytes) {
  allocate_moments(arena_.size());
}

double DDPAdam::update(int rank, bool measure_norm) {
  const obs::TraceSpan span("ddp_adam_step", "optimizer");
  // The buckets all-reduce the arena's gradient buffer in place.
  reduce_gradients(rank);
  const std::span<real> grad = arena_.grads();
  const double norm = average_and_clip(grad, rank, measure_norm);
  update_flat(arena_.values().data(), grad.data(), m_.data(), v_.data(),
              grad.size(), timestep_, options_);
  bucketer_->end_step();
  return norm;
}

ZeroAdam::ZeroAdam(Communicator& comm, std::vector<Tensor> parameters,
                   const Adam::Options& options, std::size_t bucket_bytes)
    : GradSync(std::move(parameters), options, &comm,
               CollectiveKind::kReduceScatter, bucket_bytes) {
  // The shard this rank owns is fixed by its position in the communicator;
  // every rank constructs its own ZeroAdam, so each allocates 1/R of the
  // optimizer state — the ZeRO stage-1 saving, visible to the memory
  // tracker. We size it to the LARGEST shard (rank 0's) so ranks are
  // interchangeable.
  const auto [begin, end] =
      Communicator::shard_range(arena_.size(), 0, comm.num_ranks());
  allocate_moments(end - begin);
}

double ZeroAdam::update(int rank, bool measure_norm) {
  const obs::TraceSpan span("zero_adam_step", "optimizer");
  // The buckets reduce-scatter in place: this rank's global shard of the
  // gradient buffer now holds the rank sum, which it averages and applies
  // to the same shard of the values with its own moment shard.
  reduce_gradients(rank);
  const auto [begin, end] =
      Communicator::shard_range(arena_.size(), rank, comm_->num_ranks());
  const std::span<real> grad = arena_.grads().subspan(begin, end - begin);
  const double norm = average_and_clip(grad, rank, measure_norm);
  update_flat(arena_.values().data() + begin, grad.data(), m_.data(),
              v_.data(), grad.size(), timestep_, options_);
  // Every rank's updated shard lands straight in every rank's values.
  bucketer_->all_gather_params();
  bucketer_->end_step();
  return norm;
}

}  // namespace sgnn
