#include "sgnn/train/optim.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "sgnn/store/snapshot.hpp"
#include "sgnn/train/bucketer.hpp"
#include "sgnn/train/schedule.hpp"
#include "sgnn/util/error.hpp"
#include "sgnn/util/thread_pool.hpp"

namespace sgnn {

GradSync::GradSync(std::vector<Tensor> parameters, const Options& options,
                   Communicator* comm, CollectiveKind kind,
                   std::size_t bucket_bytes)
    : arena_(std::move(parameters)), options_(options), comm_(comm) {
  SGNN_CHECK(!arena_.parameters().empty(), "optimizer needs parameters");
  for (const auto& p : arena_.parameters()) {
    SGNN_CHECK(p.requires_grad(),
               "optimizer parameters must be grad-requiring leaves");
  }
  if (comm_ != nullptr) {
    bucketer_ =
        std::make_unique<GradBucketer>(*comm_, arena_, kind, bucket_bytes);
  }
}

GradSync::~GradSync() = default;

void GradSync::backward(Tensor& loss, int rank) {
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

double GradSync::step(int rank, bool measure_norm) {
  ++timestep_;
  const double norm = update(rank, measure_norm);
  // The update works in place and allocates nothing; sample its footprint.
  MemoryTracker::instance().sample_phase();
  return norm;
}

void GradSync::save(SnapshotBuilder& builder, int rank) const {
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

void GradSync::load(const SnapshotView& view, int rank) {
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

std::vector<InterconnectModel::OverlapEvent> GradSync::take_overlap_events() {
  if (!bucketer_) return {};
  return bucketer_->take_events();
}

void GradSync::allocate_moments(std::size_t count) {
  const ScopedMemCategory scope(MemCategory::kOptimizerState);
  m_ = Tensor::zeros(Shape{static_cast<std::int64_t>(count)});
  v_ = Tensor::zeros(Shape{static_cast<std::int64_t>(count)});
}

void GradSync::reduce_gradients(int rank) {
  if (!bucketer_->active()) bucketer_->begin_step(rank);
  bucketer_->post_remaining();
  if (pre_drain_hook_) pre_drain_hook_();
  bucketer_->drain();
}

double GradSync::average_and_clip(std::span<real> grad, int rank,
                                  bool measure_norm) const {
  const auto scale = real{1} / static_cast<real>(comm_->num_ranks());
  for (auto& g : grad) g *= scale;
  if (max_grad_norm_ <= 0 && !measure_norm) return 0;
  // Every rank sums the identical vector (or its shard) in the same
  // sequential order, so the norm — and the clip factor — is bit-identical
  // across replicas; the sharded norm matches the full-vector one up to fp
  // association.
  double sum_sq = 0;
  for (const auto g : grad) {
    sum_sq += static_cast<double>(g) * static_cast<double>(g);
  }
  if (sharded()) {
    real partial = static_cast<real>(sum_sq);
    comm_->all_reduce_sum(rank, std::span<real>(&partial, 1));
    sum_sq = static_cast<double>(partial);
  }
  const double norm = std::sqrt(sum_sq);
  if (max_grad_norm_ > 0 && norm > max_grad_norm_) {
    const auto factor = static_cast<real>(max_grad_norm_ / norm);
    for (auto& g : grad) g *= factor;
  }
  return norm;
}

void GradSync::update_flat(real* param, const real* grad, real* m, real* v,
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

Adam::Adam(std::vector<Tensor> parameters, const Options& options)
    : GradSync(std::move(parameters), options) {
  allocate_moments(arena_.size());
}

double Adam::update(int /*rank*/, bool measure_norm) {
  const std::vector<Tensor>& parameters = arena_.parameters();
  double norm = 0;
  if (max_grad_norm_ > 0) {
    norm = clip_grad_norm(parameters, max_grad_norm_);
  } else if (measure_norm) {
    norm = grad_l2_norm(parameters);
  }
  for (std::size_t i = 0; i < parameters.size(); ++i) {
    if (!parameters[i].grad().defined()) continue;
    const std::size_t at = arena_.offset(i);
    update_flat(arena_.values().data() + at, arena_.grads().data() + at,
                m_.data() + at, v_.data() + at,
                arena_.offset(i + 1) - at, timestep_, options_);
  }
  return norm;
}

}  // namespace sgnn
