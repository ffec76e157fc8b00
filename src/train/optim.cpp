#include "sgnn/train/optim.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>

#include "sgnn/obs/trace.hpp"
#include "sgnn/store/snapshot.hpp"
#include "sgnn/util/error.hpp"
#include "sgnn/util/thread_pool.hpp"

namespace sgnn {

Adam::Adam(std::vector<Tensor> parameters, const Options& options,
           Communicator* comm, CollectiveKind kind, std::size_t bucket_bytes)
    : arena_(std::move(parameters)),
      options_(options),
      comm_(comm),
      kind_(kind) {
  // Each comparison is also false for NaN.
  SGNN_CHECK(std::isfinite(options.learning_rate) &&
                 options.learning_rate > 0.0,
             "Adam learning_rate must be positive and finite, got "
                 << options.learning_rate);
  SGNN_CHECK(options.beta1 >= 0.0 && options.beta1 < 1.0,
             "Adam beta1 must lie in [0, 1), got " << options.beta1);
  SGNN_CHECK(options.beta2 >= 0.0 && options.beta2 < 1.0,
             "Adam beta2 must lie in [0, 1), got " << options.beta2);
  SGNN_CHECK(options.epsilon > 0.0,
             "Adam epsilon must be positive, got " << options.epsilon);
  SGNN_CHECK(!arena_.parameters().empty(), "optimizer needs parameters");
  for (const auto& p : arena_.parameters()) {
    SGNN_CHECK(p.requires_grad(),
               "optimizer parameters must be grad-requiring leaves");
  }
  if (comm_ != nullptr) {
    bucketer_ =
        std::make_unique<GradBucketer>(*comm_, arena_, kind, bucket_bytes);
  }
  // A sharded rank allocates only 1/R of the optimizer state — the ZeRO
  // stage-1 saving, visible to the memory tracker.
  const std::size_t count =
      sharded() ? Communicator::shard_range(arena_.size(), 0,
                                            comm_->num_ranks())
                      .second
                : arena_.size();
  const ScopedMemCategory scope(MemCategory::kOptimizerState);
  m_ = Tensor::zeros(Shape{static_cast<std::int64_t>(count)});
  v_ = Tensor::zeros(Shape{static_cast<std::int64_t>(count)});
}

Adam::~Adam() = default;

void Adam::backward(Tensor& loss, int rank) {
  GradBucketer* const bucketer = bucketer_.get();
  if (bucketer == nullptr) {
    loss.backward();
    return;
  }
  bucketer->begin_step(rank);
  const autograd::ScopedLeafGradHook hook(
      [bucketer](const void* leaf) { bucketer->on_leaf_grad(leaf); });
  loss.backward();
}

double Adam::step(int rank, bool measure_norm) {
  const obs::TraceSpan span("adam_step", "optimizer");
  ++timestep_;
  std::span<real> grad = arena_.grads();
  std::span<real> values = arena_.values();
  if (bucketer_) {
    // Called unarmed, the step posts and drains everything itself
    // (unoverlapped — still bit-identical).
    if (!bucketer_->active()) bucketer_->begin_step(rank);
    bucketer_->post_remaining();
    if (pre_drain_hook_) pre_drain_hook_();
    // The buckets reduce in place: the gradient buffer — under
    // reduce-scatter only this rank's global shard of it — holds the rank
    // sum, which this rank averages and applies to the same range of the
    // values with its own moments.
    bucketer_->drain();
    if (sharded()) {
      const auto [begin, end] =
          Communicator::shard_range(arena_.size(), rank, comm_->num_ranks());
      grad = grad.subspan(begin, end - begin);
      values = values.subspan(begin, end - begin);
    }
    const auto scale = real{1} / static_cast<real>(comm_->num_ranks());
    for (auto& g : grad) g *= scale;
  }

  double norm = 0;
  if (max_grad_norm_ > 0 || measure_norm) {
    // Every rank sums the identical vector (or its shard) in the same
    // sequential order, so the norm — and the clip factor — is
    // bit-identical across replicas and settings. A shard's partial sum of
    // squares is all-reduced in fixed rank order; the sharded norm matches
    // the full-vector one up to fp association.
    double sum_sq = 0;
    for (const auto g : grad) {
      sum_sq += static_cast<double>(g) * static_cast<double>(g);
    }
    if (sharded()) {
      real partial = static_cast<real>(sum_sq);
      comm_->all_reduce_sum(rank, std::span<real>(&partial, 1));
      sum_sq = static_cast<double>(partial);
    }
    norm = std::sqrt(sum_sq);
    if (max_grad_norm_ > 0 && norm > max_grad_norm_) {
      const auto factor = static_cast<real>(max_grad_norm_ / norm);
      for (auto& g : grad) g *= factor;
    }
  }

  update_flat(values.data(), grad.data(), m_.data(), v_.data(), grad.size(),
              timestep_, options_);
  if (bucketer_) {
    // Every rank's updated shard lands straight in every rank's values.
    if (sharded()) bucketer_->all_gather_params();
    bucketer_->end_step();
  }
  // The update works in place and allocates nothing; sample its footprint.
  MemoryTracker::instance().sample_phase();
  return norm;
}

void Adam::save(SnapshotBuilder& builder, int rank) const {
  if (rank == 0) {
    builder.add_i64("optim.timestep", timestep_);
    builder.add_f64("optim.lr", options_.learning_rate);
  }
  if (!sharded() && rank != 0) return;  // rank 0's copy stands for all
  const std::string suffix = sharded() ? "." + std::to_string(rank) : "";
  const auto n = static_cast<std::size_t>(m_.numel());
  builder.add_reals("optim.m" + suffix, m_.data(), n);
  builder.add_reals("optim.v" + suffix, v_.data(), n);
}

void Adam::load(const SnapshotView& view, int rank) {
  const std::int64_t timestep = view.i64("optim.timestep");
  SGNN_CHECK(timestep >= 0, "optimizer timestep must be non-negative");
  timestep_ = timestep;
  options_.learning_rate = view.f64("optim.lr");
  const std::string suffix = sharded() ? "." + std::to_string(rank) : "";
  for (auto [name, moment] : {std::pair{"optim.m" + suffix, &m_},
                              std::pair{"optim.v" + suffix, &v_}}) {
    const std::vector<real> values = view.reals(name);
    SGNN_CHECK(static_cast<std::int64_t>(values.size()) == moment->numel(),
               name << " holds " << values.size() << " values, expected "
                    << moment->numel());
    std::copy(values.begin(), values.end(), moment->data());
  }
}

std::vector<InterconnectModel::OverlapEvent> Adam::take_overlap_events() {
  if (!bucketer_) return {};
  return bucketer_->take_events();
}

void Adam::update_flat(real* param, const real* grad, real* m, real* v,
                       std::size_t count, std::int64_t timestep,
                       const Options& options) {
  const auto beta1 = static_cast<real>(options.beta1);
  const auto beta2 = static_cast<real>(options.beta2);
  const auto eps = static_cast<real>(options.epsilon);
  const auto lr = static_cast<real>(options.learning_rate);
  const real bias1 =
      real{1} - std::pow(beta1, static_cast<real>(timestep));
  const real bias2 =
      real{1} - std::pow(beta2, static_cast<real>(timestep));
  parallel_for(0, static_cast<std::int64_t>(count), kParallelMinWork,
               [=](std::int64_t begin, std::int64_t end) {
                 for (std::int64_t k = begin; k < end; ++k) {
                   m[k] = beta1 * m[k] + (real{1} - beta1) * grad[k];
                   v[k] = beta2 * v[k] + (real{1} - beta2) * grad[k] * grad[k];
                   const real m_hat = m[k] / bias1;
                   const real v_hat = v[k] / bias2;
                   param[k] -= lr * m_hat / (std::sqrt(v_hat) + eps);
                 }
               });
}

}  // namespace sgnn
