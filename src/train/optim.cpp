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

std::vector<real> flatten_parameters(const std::vector<Tensor>& parameters) {
  std::vector<real> flat;
  for (const auto& p : parameters) {
    const real* d = p.data();
    flat.insert(flat.end(), d, d + p.numel());
  }
  return flat;
}

std::vector<real> flatten_gradients(const std::vector<Tensor>& parameters) {
  std::vector<real> flat;
  for (const auto& p : parameters) {
    const Tensor grad = p.grad();
    if (grad.defined()) {
      const real* d = grad.data();
      flat.insert(flat.end(), d, d + grad.numel());
    } else {
      flat.insert(flat.end(), static_cast<std::size_t>(p.numel()), real{0});
    }
  }
  return flat;
}

void unflatten_into_parameters(const std::vector<real>& flat,
                               std::vector<Tensor>& parameters) {
  std::size_t offset = 0;
  for (auto& p : parameters) {
    const auto n = static_cast<std::size_t>(p.numel());
    SGNN_CHECK(offset + n <= flat.size(), "unflatten size mismatch");
    std::copy_n(flat.data() + offset, n, p.data());
    offset += n;
  }
  SGNN_CHECK(offset == flat.size(), "unflatten left " << flat.size() - offset
                                                      << " dangling values");
}

GradSync::GradSync(std::vector<Tensor> parameters, const Options& options,
                   Communicator* comm, CollectiveKind kind,
                   std::size_t bucket_bytes)
    : parameters_(std::move(parameters)), options_(options), comm_(comm) {
  SGNN_CHECK(!parameters_.empty(), "optimizer needs parameters");
  for (const auto& p : parameters_) {
    SGNN_CHECK(p.defined() && p.is_leaf() && p.requires_grad(),
               "optimizer parameters must be grad-requiring leaves");
  }
  if (comm_ != nullptr && bucket_bytes > 0) {
    bucketer_ =
        std::make_unique<GradBucketer>(*comm_, parameters_, kind, bucket_bytes);
  }
}

GradSync::~GradSync() = default;

void GradSync::zero_grad() {
  for (auto& p : parameters_) p.zero_grad();
}

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
  return update(rank, measure_norm);
}

void GradSync::save(SnapshotBuilder& builder, int rank) const {
  if (rank == 0) {
    builder.add_i64("optim.timestep", timestep_);
    builder.add_f64("optim.lr", options_.learning_rate);
  }
  if (!sharded() && rank != 0) return;  // rank 0's copy stands for all
  const std::string suffix = sharded() ? "." + std::to_string(rank) : "";
  const std::vector<real> m = flatten_parameters(m_);
  const std::vector<real> v = flatten_parameters(v_);
  builder.add_reals("optim.m" + suffix, m.data(), m.size());
  builder.add_reals("optim.v" + suffix, v.data(), v.size());
}

void GradSync::load(const SnapshotView& view, int rank) {
  const std::int64_t timestep = view.i64("optim.timestep");
  SGNN_CHECK(timestep >= 0, "optimizer timestep must be non-negative");
  timestep_ = timestep;
  options_.learning_rate = view.f64("optim.lr");
  const std::string suffix = sharded() ? "." + std::to_string(rank) : "";
  unflatten_into_parameters(view.reals("optim.m" + suffix), m_);
  unflatten_into_parameters(view.reals("optim.v" + suffix), v_);
}

std::vector<InterconnectModel::OverlapEvent> GradSync::take_overlap_events() {
  if (!bucketer_) return {};
  return bucketer_->take_events();
}

void GradSync::allocate_moments(const std::vector<Shape>& shapes) {
  const ScopedMemCategory scope(MemCategory::kOptimizerState);
  for (const Shape& shape : shapes) {
    m_.push_back(Tensor::zeros(shape));
    v_.push_back(Tensor::zeros(shape));
  }
}

void GradSync::post_buckets(int rank) {
  if (!bucketer_->active()) bucketer_->begin_step(rank);
  bucketer_->post_remaining();
  if (pre_drain_hook_) pre_drain_hook_();
}

double GradSync::average_and_clip(std::vector<real>& grad, int rank,
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
    std::vector<real> partial = {static_cast<real>(sum_sq)};
    comm_->all_reduce_sum(rank, partial);
    sum_sq = static_cast<double>(partial[0]);
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
  std::vector<Shape> shapes;
  for (const auto& p : parameters_) shapes.push_back(p.shape());
  allocate_moments(shapes);
}

double Adam::update(int /*rank*/, bool measure_norm) {
  double norm = 0;
  if (max_grad_norm_ > 0) {
    norm = clip_grad_norm(parameters_, max_grad_norm_);
  } else if (measure_norm) {
    norm = grad_l2_norm(parameters_);
  }
  for (std::size_t i = 0; i < parameters_.size(); ++i) {
    const Tensor grad = parameters_[i].grad();
    if (!grad.defined()) continue;
    update_flat(parameters_[i].data(), grad.data(), m_[i].data(),
                v_[i].data(), static_cast<std::size_t>(parameters_[i].numel()),
                timestep_, options_);
  }
  return norm;
}

}  // namespace sgnn
