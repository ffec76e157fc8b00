#include "sgnn/train/zero.hpp"

#include <algorithm>

#include "sgnn/obs/trace.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn {

namespace {

std::size_t total_elements(const std::vector<Tensor>& parameters) {
  std::size_t total = 0;
  for (const auto& p : parameters) total += static_cast<std::size_t>(p.numel());
  return total;
}

}  // namespace

DDPAdam::DDPAdam(Communicator& comm, std::vector<Tensor> parameters,
                 const Adam::Options& options, std::size_t bucket_bytes)
    : GradSync(std::move(parameters), options, &comm,
               CollectiveKind::kAllReduce, bucket_bytes) {
  allocate_moments(
      {Shape{static_cast<std::int64_t>(total_elements(parameters_))}});
}

double DDPAdam::update(int rank, bool measure_norm) {
  const obs::TraceSpan span("ddp_adam_step", "optimizer");
  std::vector<real> grad;
  if (bucketer_) {
    // Overlapped path: the drain assembles the same summed flat vector the
    // blocking all_reduce_sum produces — byte for byte.
    post_buckets(rank);
    bucketer_->drain_all_reduce(grad);
    bucketer_->end_step();
  } else {
    grad = flatten_gradients(parameters_);
  }
  const ScopedBytes grad_staging(grad.size() * sizeof(real),
                                 MemCategory::kWorkspace);
  if (!bucketer_) {
    comm_->all_reduce_sum(rank, grad);
  }
  const double norm = average_and_clip(grad, rank, measure_norm);

  std::vector<real> param = flatten_parameters(parameters_);
  const ScopedBytes param_staging(param.size() * sizeof(real),
                                  MemCategory::kWorkspace);
  update_flat(param.data(), grad.data(), m_.front().data(), v_.front().data(),
              param.size(), timestep_, options_);
  unflatten_into_parameters(param, parameters_);
  return norm;
}

ZeroAdam::ZeroAdam(Communicator& comm, std::vector<Tensor> parameters,
                   const Adam::Options& options, std::size_t bucket_bytes)
    : GradSync(std::move(parameters), options, &comm,
               CollectiveKind::kReduceScatter, bucket_bytes),
      total_elements_(total_elements(parameters_)) {
  // The shard this rank owns is fixed by its position in the communicator;
  // every rank constructs its own ZeroAdam, so each allocates 1/R of the
  // optimizer state — the ZeRO stage-1 saving, visible to the memory
  // tracker. We size it to the LARGEST shard so ranks are interchangeable.
  std::size_t max_shard = 0;
  for (int r = 0; r < comm.num_ranks(); ++r) {
    const auto [begin, end] =
        Communicator::shard_range(total_elements_, r, comm.num_ranks());
    max_shard = std::max(max_shard, end - begin);
  }
  allocate_moments({Shape{static_cast<std::int64_t>(max_shard)}});
}

double ZeroAdam::update(int rank, bool measure_norm) {
  const obs::TraceSpan span("zero_adam_step", "optimizer");

  // Gradient shard for this rank (summed across ranks), then averaged.
  std::vector<real> grad_shard;
  if (bucketer_) {
    // Overlapped path: bucketed reduce-scatter along the GLOBAL shard
    // boundaries; the drain assembles exactly the shard the blocking
    // reduce_scatter_sum yields.
    post_buckets(rank);
    bucketer_->drain_reduce_scatter(grad_shard);
  } else {
    const std::vector<real> grad = flatten_gradients(parameters_);
    const ScopedBytes grad_staging(grad.size() * sizeof(real),
                                   MemCategory::kWorkspace);
    SGNN_CHECK(grad.size() == total_elements_, "gradient size changed");
    grad_shard = comm_->reduce_scatter_sum(rank, grad);
  }
  const double norm =
      average_and_clip(grad_shard, rank, measure_norm);

  // Update only the owned parameter shard with the owned optimizer state.
  std::vector<real> param = flatten_parameters(parameters_);
  const ScopedBytes param_staging(param.size() * sizeof(real),
                                  MemCategory::kWorkspace);
  const auto [begin, end] =
      Communicator::shard_range(total_elements_, rank, comm_->num_ranks());
  SGNN_CHECK(end - begin == grad_shard.size(), "shard size mismatch");
  std::vector<real> param_shard(param.begin() + static_cast<std::ptrdiff_t>(begin),
                                param.begin() + static_cast<std::ptrdiff_t>(end));
  update_flat(param_shard.data(), grad_shard.data(), m_.front().data(),
              v_.front().data(), param_shard.size(), timestep_, options_);

  // Reassemble the full updated parameter vector on every rank.
  if (bucketer_) {
    // Bucketed non-blocking gathers; the write-back of each landed bucket
    // overlaps the gathers still in flight. Ends the bucketed step.
    bucketer_->all_gather_params(param_shard);
  } else {
    const std::vector<real> gathered = comm_->all_gather(rank, param_shard);
    SGNN_CHECK(gathered.size() == total_elements_, "all_gather size mismatch");
    unflatten_into_parameters(gathered, parameters_);
  }
  return norm;
}

}  // namespace sgnn
